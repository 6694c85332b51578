package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the summary-driven interprocedural layer shared by the
// cross-rank analyzers: which calls are MPI collectives, which
// expressions are rank-dependent, and what collective sequence a
// same-package callee contributes at its call site. Scope is one
// package (the vet unit): cross-package calls other than to the mpi
// runtime itself are opaque.

// collectiveFuncs are the package-level mpi entry points that are
// collective over the communicator: every rank must call them in the
// same order or ranks deadlock in mismatched barriers and waits.
var collectiveFuncs = map[string]bool{
	"Allgather": true, "Alltoall": true, "Alltoallv": true,
	"AllreduceSum": true, "AllreduceMax": true, "Gather": true,
	"NewExchangePlan": true, "NewExchangePlanBounded": true,
	"NewReducePlan": true,
}

// collectiveMethods maps mpi receiver types to their collective
// methods. Free is collective in effect: a rank that skips it leaves
// the plan's barrier registered forever on every rank.
var collectiveMethods = map[string]map[string]bool{
	"Comm":         {"Barrier": true, "Split": true, "CartGrid": true},
	"ExchangePlan": {"Do": true, "DoBounded": true, "Free": true},
	"ReducePlan":   {"Sum": true, "Max": true, "Free": true},
}

// collectiveLabel returns the label of a direct mpi collective call
// ("mpi.Allgather", "ExchangePlan.Do"), or "".
func collectiveLabel(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Name() != "mpi" {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		n := namedType(recv.Type())
		if n == nil || n.Obj() == nil {
			return ""
		}
		if ms := collectiveMethods[n.Obj().Name()]; ms != nil && ms[f.Name()] {
			return n.Obj().Name() + "." + f.Name()
		}
		return ""
	}
	if collectiveFuncs[f.Name()] {
		return "mpi." + f.Name()
	}
	return ""
}

// planTypeName reports the mpi plan type a value is ((pointer to)
// ExchangePlan/ReducePlan), or "".
func planTypeName(t types.Type) string {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Name() != "mpi" {
		return ""
	}
	switch n.Obj().Name() {
	case "ExchangePlan", "ReducePlan":
		return n.Obj().Name()
	}
	return ""
}

// rankTaint computes the set of objects in one function declaration
// (including its nested closures, so captured flags work) whose value
// derives from the local rank: x := c.Rank(), root := c.Rank() == 0,
// and everything assigned from them, to a fixpoint.
func rankTaint(info *types.Info, body ast.Node) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	exprTainted := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && tainted[obj] {
					found = true
				}
			case *ast.CallExpr:
				if isRankCall(info, n) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	taintLHS := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				tainted[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				tainted[obj] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		before := len(tainted)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Rhs {
						if exprTainted(n.Rhs[i]) {
							taintLHS(n.Lhs[i])
						}
					}
				} else if len(n.Rhs) == 1 && exprTainted(n.Rhs[0]) {
					for _, l := range n.Lhs {
						taintLHS(l)
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Values {
						if exprTainted(n.Values[i]) {
							if obj := info.Defs[n.Names[i]]; obj != nil && n.Names[i].Name != "_" {
								tainted[obj] = true
							}
						}
					}
				} else if len(n.Values) == 1 && exprTainted(n.Values[0]) {
					for _, id := range n.Names {
						if obj := info.Defs[id]; obj != nil && id.Name != "_" {
							tainted[obj] = true
						}
					}
				}
			}
			return true
		})
		if len(tainted) != before {
			changed = true
		}
	}
	return tainted
}

// isRankCall reports whether the call is <mpi.Comm>.Rank().
func isRankCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Name() == "Rank" && f.Pkg() != nil && f.Pkg().Name() == "mpi"
}

// nodeTainted reports whether any controlling expression mentions a
// tainted object or calls Rank() directly.
func nodeTainted(info *types.Info, tainted map[types.Object]bool, nodes []ast.Node) bool {
	for _, nd := range nodes {
		found := false
		ast.Inspect(nd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && tainted[obj] {
					found = true
				}
			case *ast.CallExpr:
				if isRankCall(info, n) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// collSummaries computes, per package function, the collective
// sequence one call to it contributes. A function whose paths all
// agree summarizes to that exact sequence (possibly empty); one whose
// paths disagree on data-dependent (non-rank) state is opaque — it
// summarizes to a single "call:name" marker so that symmetric use of
// the same helper stays symmetric while different helpers never
// compare equal by accident.
type collSummaries struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func][]string
	state map[*types.Func]int // 0 unvisited, 1 in progress, 2 done
}

func newCollSummaries(pass *Pass) *collSummaries {
	cs := &collSummaries{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		memo:  map[*types.Func][]string{},
		state: map[*types.Func]int{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					cs.decls[obj] = fd
				}
			}
		}
	}
	return cs
}

// callLabels returns the collective labels one call contributes: a
// direct mpi collective's own label, or an inlined same-package
// summary.
func (cs *collSummaries) callLabels(call *ast.CallExpr) []string {
	if lab := collectiveLabel(cs.pass.Info, call); lab != "" {
		return []string{lab}
	}
	f := calleeFunc(cs.pass.Info, call)
	if f == nil || f.Pkg() != cs.pass.Pkg {
		return nil
	}
	return cs.summary(f)
}

func (cs *collSummaries) summary(f *types.Func) []string {
	switch cs.state[f] {
	case 1:
		// Recursive: opaque if the body mentions collectives at all.
		fd := cs.decls[f]
		if fd != nil && cs.mentionsCollective(fd.Body) {
			return []string{"call:" + f.Name()}
		}
		return nil
	case 2:
		return cs.memo[f]
	}
	fd := cs.decls[f]
	if fd == nil {
		return nil
	}
	cs.state[f] = 1
	cfg := BuildCFG(cs.pass.Info, fd.Body)
	// Loop markers are a fairness device for comparing branch arms,
	// not part of a function's collective schedule: normalization
	// keeps every purely-local loopy helper summarizing to the empty
	// sequence instead of going opaque.
	seqs := normalizeSeqs(newSeqSolver(cs, nil).seqs(cfg.Entry))
	var out []string
	switch {
	case len(seqs) == 1:
		if seqs[0] != "" {
			out = strings.Split(seqs[0], " ")
		}
	case len(seqs) > 1:
		out = []string{"call:" + f.Name()}
	}
	cs.state[f] = 2
	cs.memo[f] = out
	return out
}

// mentionsCollective is the cheap syntactic pre-check used to decide
// whether a recursive function is collective-relevant.
func (cs *collSummaries) mentionsCollective(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && collectiveLabel(cs.pass.Info, call) != "" {
			found = true
		}
		return !found
	})
	return found
}

// nodeLabels extracts, in source order, the collective labels of every
// call inside one CFG node, skipping closure bodies (creating a
// closure is not calling it).
func (cs *collSummaries) nodeLabels(nd ast.Node) []string {
	var out []string
	ast.Inspect(nd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isBuiltin(cs.pass.Info, n, "panic") {
				return false // cold abort path
			}
			out = append(out, cs.callLabels(n)...)
		}
		return true
	})
	return out
}

// seqSolver enumerates the distinct collective sequences from a block
// to the function exit, with deterministic caps so pathological fans
// stay cheap: at most maxSeqs sequences of at most maxSeqLen labels
// are kept, and a loop back-edge contributes a single "<loop>" marker
// (both arms of any branch see the same treatment, so truncation can
// hide a divergence but never invent one).
//
// A non-nil cut block is treated as already in progress: comparing the
// arms of a branch uses the branch block itself as the cut, so a path
// that loops back through the branch contributes the same marker to
// either arm and symmetric loop bodies compare equal. Arms of one
// branch must be compared through one solver — the shared suffix past
// the join is then memoized once and appended identically to both.
type seqSolver struct {
	cs    *collSummaries
	memo  map[*Block][]string
	state map[*Block]int
}

const (
	maxSeqs   = 16
	maxSeqLen = 48
)

func newSeqSolver(cs *collSummaries, cut *Block) *seqSolver {
	ss := &seqSolver{cs: cs, memo: map[*Block][]string{}, state: map[*Block]int{}}
	if cut != nil {
		ss.state[cut] = 1
	}
	return ss
}

// seqs returns the sorted, deduplicated sequence set from b to exit.
// Each sequence is a space-joined label string ("" for no
// collectives).
func (ss *seqSolver) seqs(b *Block) []string {
	switch ss.state[b] {
	case 1:
		return []string{"<loop>"}
	case 2:
		return ss.memo[b]
	}
	if b.Abort {
		// Abort paths (panic, os.Exit, log.Fatal) are not schedules:
		// they contribute no sequences, exactly as the tracker treats
		// panic paths as non-leaks.
		ss.state[b] = 2
		ss.memo[b] = nil
		return nil
	}
	ss.state[b] = 1
	var prefix []string
	for _, nd := range b.Nodes {
		prefix = append(prefix, ss.cs.nodeLabels(nd)...)
	}
	var out []string
	if len(b.Succs) == 0 {
		out = []string{strings.Join(capLabels(prefix), " ")}
	} else {
		set := map[string]bool{}
		for _, succ := range b.Succs {
			for _, tail := range ss.seqs(succ) {
				seq := strings.Join(capLabels(prefix), " ")
				if tail != "" {
					if seq != "" {
						seq += " " + tail
					} else {
						seq = tail
					}
				}
				set[strings.Join(capLabels(strings.Fields(seq)), " ")] = true
			}
		}
		for s := range set {
			out = append(out, s)
		}
		sort.Strings(out)
		if len(out) > maxSeqs {
			out = out[:maxSeqs]
		}
	}
	ss.state[b] = 2
	ss.memo[b] = out
	return out
}

func capLabels(labels []string) []string {
	if len(labels) <= maxSeqLen {
		return labels
	}
	return append(labels[:maxSeqLen:maxSeqLen], "...")
}

// normalizeSeqs canonicalizes an enumerated sequence set for
// comparison. A "<loop>" marker means the enumeration was truncated
// at a back-edge: such a path is not a complete path to the exit, so
// when it carries no collective labels it is a pure enumeration
// artifact (a rank-dependent trip count over local work) and is
// dropped; when it does carry collectives, the labels are kept — a
// rank-dependent number of barriers is genuine schedule divergence.
func normalizeSeqs(seqs []string) []string {
	set := map[string]bool{}
	for _, s := range seqs {
		fields := strings.Fields(s)
		looped := false
		var kept []string
		for _, lab := range fields {
			if lab == "<loop>" {
				looped = true
				continue
			}
			kept = append(kept, lab)
		}
		if looped && len(kept) == 0 {
			continue
		}
		set[strings.Join(kept, " ")] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
