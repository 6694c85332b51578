package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CollSym enforces cross-rank collective symmetry: every control-flow
// path through a function that issues mpi collectives (Barrier,
// Allgather, plan construction, plan Do/Free, ...) must perform the
// same collective sequence regardless of rank-dependent branches. A
// collective issued under `if rank == 0` runs on one rank while the
// others never enter it — the classic schedule-divergence deadlock
// the runtime watchdog only catches after the ranks have hung.
//
// The check is summary-driven within the package: a same-package
// callee contributes its own collective sequence inline when all its
// paths agree, and an opaque "call:name" marker when they diverge on
// non-rank state (so symmetric use of the same helper stays
// symmetric). Cross-package calls other than to mpi itself are
// invisible; rank-conditional logging or I/O is therefore fine.
var CollSym = &Analyzer{
	Name: "collsym",
	Doc:  "every rank-dependent branch must issue the same mpi collective sequence on all arms",
	Run:  runCollSym,
}

func runCollSym(pass *Pass) {
	if pass.Pkg != nil && pass.Pkg.Name() == "mpi" {
		// The runtime implements the collectives themselves, with
		// rank-asymmetric arms by design (a Gather's root, a Split
		// group's leader).
		return
	}
	cs := newCollSummaries(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Taint is computed over the whole declaration so flags
			// captured by closures (root := c.Rank() == 0) stay tainted
			// inside their bodies.
			tainted := rankTaint(pass.Info, fd.Body)
			checkCollSym(pass, cs, tainted, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkCollSym(pass, cs, tainted, fl.Body)
				}
				return true
			})
		}
	}
}

// checkCollSym builds the body's CFG and compares, at every
// rank-dependent branch, the collective sequence sets of all arms.
func checkCollSym(pass *Pass, cs *collSummaries, tainted map[types.Object]bool, body *ast.BlockStmt) {
	cfg := BuildCFG(pass.Info, body)
	for _, b := range cfg.Blocks {
		if len(b.Succs) < 2 || len(b.Cond) == 0 {
			continue
		}
		if !nodeTainted(pass.Info, tainted, b.Cond) {
			continue
		}
		// Arms of one branch must be compared through one solver with
		// the branch block as the cut (see seqSolver). Sequences are
		// normalized before comparing: a rank-dependent trip count
		// over purely local work (splitRange-style data parallelism)
		// is not schedule divergence — only differing collectives are.
		// An arm with no complete paths (all abort or loop back) is
		// vacuous and compares against nothing.
		ss := newSeqSolver(cs, b)
		first := normalizeSeqs(ss.seqs(b.Succs[0]))
		if len(first) == 0 {
			continue
		}
		for _, succ := range b.Succs[1:] {
			got := normalizeSeqs(ss.seqs(succ))
			if len(got) == 0 {
				continue
			}
			if !equalSeqSets(first, got) {
				pass.Reportf(b.Cond[0].Pos(),
					"rank-dependent branch diverges in collective sequence: [%s] vs [%s] (deadlock risk)",
					seqSetString(first), seqSetString(got))
				break
			}
		}
	}
}

func equalSeqSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seqSetString renders a sorted sequence set for the diagnostic, with
// the empty sequence spelled out.
func seqSetString(seqs []string) string {
	parts := make([]string, len(seqs))
	for i, s := range seqs {
		if s == "" {
			s = "<none>"
		}
		parts[i] = s
	}
	return strings.Join(parts, " | ")
}
