// Package analysis implements the psdnslint analyzer suite: three
// static analyzers that enforce the invariants the runtime design
// depends on and that neither the tests nor the runtime can check
// for every site. Each is kept because it catches a seeded mutation
// of the real tree (see DESIGN §7):
//
//   - hotalloc:   no heap allocations in //psdns:hotpath functions,
//     with propagation one level into same-package callees;
//   - lockorder:  no channel sends or nested cond.Wait while holding a
//     mutex inside internal/mpi;
//   - metricname: metric names are constants following the
//     subsystem.noun[.verb] convention, each registered as one kind.
//
// Leaked plans, pool checkouts held across steady-state calls and
// rank-divergent collective schedules are caught at run time instead:
// by mpi.Run's world-end plan ledger, by the pool's checkout count and
// by the stall watchdog.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained: the repository
// builds against a bare standard library, so the vet-protocol driver
// in cmd/psdnslint and the analysistest harness are implemented
// directly on go/ast, go/types and go/importer.
//
// Any finding can be suppressed at the site with
//
//	//psdns:allow <analyzer> <reason>
//
// on the offending line, the line above it, or — for findings inside
// a multi-line statement — the statement's first line or the line
// above that. The reason is mandatory; a bare directive suppresses
// nothing and is itself reported, as is a directive naming an unknown
// analyzer. Findings in _test.go files are never reported: tests
// exercise throwaway metric names, deliberate leaks and allocations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a single type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one package: its syntax, its type
// information, and a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, attributed to the analyzer that made
// it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full psdnslint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{HotAlloc, LockOrder, MetricName}
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated, suitable for passing to types.Config.Check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Instances:    map[*ast.Ident]types.Instance{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		Scopes:       map[ast.Node]*types.Scope{},
		FileVersions: map[*ast.File]string{},
	}
}

const (
	allowPrefix = "//psdns:allow"
	hotpathMark = "//psdns:hotpath"
)

// An allowDirective is one parsed //psdns:allow comment.
type allowDirective struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
}

// collectAllows parses every //psdns:allow directive in the package.
// The reason is everything after the analyzer name, truncated at an
// embedded "//" so fixture files can carry a trailing // want
// expectation on the directive line.
func collectAllows(fset *token.FileSet, files []*ast.File) []allowDirective {
	var out []allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //psdns:allowance
				}
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				d := allowDirective{pos: c.Slash}
				posn := fset.Position(c.Slash)
				d.file, d.line = posn.Filename, posn.Line
				if len(fields) > 0 {
					d.analyzer = fields[0]
					d.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// isHotpath reports whether fd's doc comment carries the
// //psdns:hotpath annotation.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathMark {
			return true
		}
	}
	return false
}

// Run applies the analyzers to one type-checked package and returns
// the surviving diagnostics in file/position order. Findings in
// _test.go files are dropped, findings covered by a //psdns:allow
// directive with a matching analyzer name and a non-empty reason are
// suppressed, and reason-less directives for a known analyzer are
// themselves reported.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info}
		a.Run(pass)
		all = append(all, pass.diags...)
	}

	allows := collectAllows(fset, files)
	// Unknown-name reporting is against the full suite, not just the
	// analyzers this run enabled: a single-analyzer test run must not
	// misreport a directive aimed at a sibling analyzer.
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	spans := stmtSpans(fset, files)

	var out []Diagnostic
	for _, d := range all {
		posn := fset.Position(d.Pos)
		if strings.HasSuffix(posn.Filename, "_test.go") {
			continue
		}
		if dir := matchAllow(allows, spans, posn, d.Analyzer); dir != nil && dir.reason != "" {
			continue
		}
		out = append(out, d)
	}
	for _, dir := range allows {
		if strings.HasSuffix(dir.file, "_test.go") {
			continue
		}
		switch {
		case dir.analyzer != "" && !known[dir.analyzer]:
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "psdnslint",
				Message:  fmt.Sprintf("psdns:allow names unknown analyzer %q; the directive suppresses nothing", dir.analyzer),
			})
		case dir.reason == "" && known[dir.analyzer]:
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: dir.analyzer,
				Message:  fmt.Sprintf("psdns:allow %s requires a non-empty reason", dir.analyzer),
			})
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out
}

// stmtSpan is the line extent of one statement, used to let a
// directive above a multi-line statement cover findings on its
// continuation lines.
type stmtSpan struct {
	start, end int
}

// stmtSpans records the line span of every statement per file.
func stmtSpans(fset *token.FileSet, files []*ast.File) map[string][]stmtSpan {
	out := map[string][]stmtSpan{}
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok {
				out[name] = append(out[name], stmtSpan{
					start: fset.Position(s.Pos()).Line,
					end:   fset.Position(s.End()).Line,
				})
			}
			return true
		})
	}
	return out
}

// stmtStartLine returns the first line of the innermost multi-line
// statement containing the given line, or 0 when the line is not on a
// continuation line of any statement.
func stmtStartLine(spans []stmtSpan, line int) int {
	best := 0
	bestSize := 1 << 30
	for _, sp := range spans {
		if sp.start < line && line <= sp.end && sp.end-sp.start < bestSize {
			best, bestSize = sp.start, sp.end-sp.start
		}
	}
	return best
}

// matchAllow finds a directive covering a diagnostic: same file, same
// analyzer, on the diagnostic's line, the line above it, or — when
// the finding sits on a continuation line of a multi-line statement —
// the statement's first line or the line above that.
func matchAllow(allows []allowDirective, spans map[string][]stmtSpan, posn token.Position, analyzer string) *allowDirective {
	stmtLine := stmtStartLine(spans[posn.Filename], posn.Line)
	for i := range allows {
		d := &allows[i]
		if d.analyzer != analyzer || d.file != posn.Filename {
			continue
		}
		if d.line == posn.Line || d.line == posn.Line-1 {
			return d
		}
		if stmtLine > 0 && (d.line == stmtLine || d.line == stmtLine-1) {
			return d
		}
	}
	return nil
}

// calleeFunc resolves a call to the declared function or method it
// invokes — f(…), x.f(…), or either with explicit type arguments
// (f[T](…)) — or nil for builtins, conversions, and dynamic calls
// through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := calleeExpr(call).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeExpr is the call's function expression with parentheses and
// explicit type arguments stripped: the identifier or selector that
// names the callee.
func calleeExpr(call *ast.CallExpr) ast.Expr {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.IndexExpr:
		return ast.Unparen(fun.X)
	case *ast.IndexListExpr:
		return ast.Unparen(fun.X)
	default:
		return fun
	}
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// namedType unwraps pointers and reports the named type and its
// package, or nil if t is not (a pointer to) a named type.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is (a pointer to) the named type
// pkgName.typeName.
func isNamed(t types.Type, pkgName, typeName string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}
