package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// typecheck parses and checks a dependency-free source file.
func typecheck(t *testing.T, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	pkg, err := (&types.Config{}).Check("a", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}, pkg, info
}

func TestAllowDirectiveParsing(t *testing.T) {
	src := `package a

//psdns:allow hotalloc one-time table build
var x = 1

//psdns:allow lockorder
var y = 2

//psdns:allowance not a directive
var z = 3
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows := collectAllows(fset, []*ast.File{f})
	if len(allows) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(allows), allows)
	}
	if allows[0].analyzer != "hotalloc" || allows[0].reason != "one-time table build" {
		t.Errorf("directive 0 = %+v", allows[0])
	}
	if allows[1].analyzer != "lockorder" || allows[1].reason != "" {
		t.Errorf("directive 1 = %+v", allows[1])
	}
}

func TestEmptyReasonReported(t *testing.T) {
	src := `package a

func f(n int) []int {
	//psdns:allow hotalloc
	return g(n)
}

func g(n int) []int { return nil }
`
	fset, files, pkg, info := typecheck(t, src)
	probe := &Analyzer{Name: "hotalloc", Doc: "probe", Run: func(*Pass) {}}
	diags := Run(fset, files, pkg, info, []*Analyzer{probe})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "requires a non-empty reason") {
		t.Fatalf("diags = %+v, want one empty-reason report", diags)
	}
}

func TestHotpathAnnotationDetection(t *testing.T) {
	src := `package a

// step does work.
//
//psdns:hotpath
func step() {}

// cold is not annotated.
func cold() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			got[fd.Name.Name] = isHotpath(fd)
		}
	}
	if !got["step"] || got["cold"] {
		t.Fatalf("hotpath detection = %v", got)
	}
}

func TestTestFileDiagnosticsDropped(t *testing.T) {
	src := `package a

func f() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	pkg, err := (&types.Config{}).Check("a", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	noisy := &Analyzer{Name: "noisy", Doc: "probe", Run: func(p *Pass) {
		p.Reportf(f.Pos(), "finding in a test file")
	}}
	if diags := Run(fset, []*ast.File{f}, pkg, info, []*Analyzer{noisy}); len(diags) != 0 {
		t.Fatalf("diags = %+v, want none in _test.go", diags)
	}
}
