package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist names the exported functions of internal/ that no
// program file calls and that stay anyway: reference oracles that tests
// in another package compare against. A key is "<dir>.<Func>" or
// "<dir>.<Type>.<Method>"; the value is the reason.
var reachAllowlist = map[string]string{
	"internal/fft.NewPlan3D":             "the 3-D DFT the pfft engine tests compare every grid against",
	"internal/stats.Percentile":          "the percentile the metrics histograms are pinned to",
	"internal/hw.Machine.CheckFit":       "core's what-if tests pin §3.1's dense-node premise with it",
	"internal/hw.Machine.WithHostMemory": "core's what-if tests pin §3.1's dense-node premise with it",
}

// stdMethods are method names that satisfy a standard-library
// interface, so a value reaches them with no call site that names them.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// TestInternalExportsHaveProgramCallers fails on an exported function
// or method under internal/ that no non-test file of the module (root,
// cmd/, examples/, benchmark/; testdata/ excluded) uses: code that only
// tests reach is deleted or moved into the tests that use it. A
// function is used where its package's files name it or an importer
// writes pkg.Name; a method is used where any file names it, since
// receivers are not resolved. Packages named *test (pooltest,
// analysistest) exist to serve tests and are exempt.
func TestInternalExportsHaveProgramCallers(t *testing.T) {
	type decl struct {
		key, name string
		method    bool
		pos       token.Position
	}
	fset := token.NewFileSet()
	names := map[string]bool{} // every identifier, for methods
	funcs := map[string]bool{} // "<dir>.<Name>" as a function can be named
	var decls []decl
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := d.Name()
		if d.IsDir() {
			if file != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imports := map[string]string{} // local name → module-relative dir
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "repro/")
			if !ok {
				continue
			}
			name := path.Base(rel)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		own := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !strings.HasPrefix(dir, "internal/") || strings.HasSuffix(path.Base(dir), "test") || !fd.Name.IsExported() {
				continue
			}
			dl := decl{key: dir + "." + fd.Name.Name, name: fd.Name.Name, pos: fset.Position(fd.Pos())}
			if fd.Recv != nil {
				dl.method = true
				dl.key = dir + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, dl)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcs[imports[id.Name]+"."+x.Sel.Name] = true
				}
			case *ast.Ident:
				if !own[x] {
					names[x.Name] = true
					funcs[dir+"."+x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	declared := map[string]bool{}
	var bad []string
	for _, d := range decls {
		declared[d.key] = true
		used := funcs[d.key]
		if d.method {
			used = names[d.name] || stdMethods[d.name]
		}
		_, allowed := reachAllowlist[d.key]
		switch {
		case !used && !allowed:
			bad = append(bad, d.pos.String()+": "+d.key+" is reached only by tests: give it a program caller, delete it, or move it into its tests")
		case used && allowed:
			bad = append(bad, d.key+" has a program caller: drop it from reachAllowlist")
		}
	}
	for key, reason := range reachAllowlist {
		if !declared[key] {
			bad = append(bad, key+" is in reachAllowlist but not declared")
		}
		if reason == "" {
			bad = append(bad, key+" is in reachAllowlist without a reason")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// recvType returns the type name of a method receiver expression.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
