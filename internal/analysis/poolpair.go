package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolPair checks that every buffer checked out of internal/pool via
// a Get* call is either released with a Put* call on every path,
// handed off (stored in a plan struct, returned, passed on), or
// checked out in a function that only runs at plan/constructor time.
// The arena reuses buffers by length; a leaked checkout is a
// permanent miss that silently re-grows the very allocations the
// pool exists to amortize.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pair every pool.Get* with a Put* on all paths, except at plan/constructor time",
	Run:  runPoolPair,
}

// constructorName reports whether a function is, by naming
// convention, plan/constructor-time code whose checkouts live for the
// lifetime of the object they populate.
func constructorName(name string) bool {
	for _, p := range []string{"New", "new", "Build", "build", "Plan", "plan", "Make", "make", "Init", "init"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// exemptFuncs returns the plan-time function set: constructor-named
// declarations, plus (to a fixpoint) unexported functions reachable
// only from already-exempt functions.
func exemptFuncs(pass *Pass) map[*ast.FuncDecl]bool {
	decls := map[*types.Func]*ast.FuncDecl{}
	var all []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
				all = append(all, fd)
			}
		}
	}

	callers := map[*ast.FuncDecl][]*ast.FuncDecl{}
	for _, fd := range all {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := calleeFunc(pass.Info, call); f != nil {
				if cd := decls[f]; cd != nil {
					callers[cd] = append(callers[cd], fd)
				}
			}
			return true
		})
	}

	exempt := map[*ast.FuncDecl]bool{}
	for _, fd := range all {
		if constructorName(fd.Name.Name) {
			exempt[fd] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range all {
			if exempt[fd] || ast.IsExported(fd.Name.Name) || len(callers[fd]) == 0 {
				continue
			}
			allExempt := true
			for _, c := range callers[fd] {
				if !exempt[c] && c != fd {
					allExempt = false
					break
				}
			}
			if allExempt {
				exempt[fd] = true
				changed = true
			}
		}
	}
	return exempt
}

// isPoolCall reports the pool function a call resolves to when its
// name carries the given prefix ("Get" or "Put").
func isPoolCall(info *types.Info, call *ast.CallExpr, prefix string) *types.Func {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Name() != "pool" {
		return nil
	}
	if !strings.HasPrefix(f.Name(), prefix) {
		return nil
	}
	return f
}

func runPoolPair(pass *Pass) {
	if pass.Pkg != nil && pass.Pkg.Name() == "pool" {
		return // the arena's own plumbing hands buffers through by design
	}
	exempt := exemptFuncs(pass)
	tr := &tracker{
		pass: pass,
		isAcquire: func(call *ast.CallExpr) string {
			if f := isPoolCall(pass.Info, call, "Get"); f != nil {
				return "pool." + f.Name()
			}
			return ""
		},
		isRelease: func(call *ast.CallExpr, obj types.Object) bool {
			if isPoolCall(pass.Info, call, "Put") == nil {
				return false
			}
			for _, a := range call.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					return true
				}
			}
			return false
		},
		leak: func(desc, where string) string {
			return "buffer from " + desc + " may not be released (pool.Put*) on " + where +
				"; release it, hand off ownership, or check it out at plan time"
		},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || exempt[fd] {
				continue
			}
			tr.run(fd.Body)
			// Closures get their own walk: a worker body that checks
			// out scratch per call must release it per call.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					tr.run(lit.Body)
				}
				return true
			})
		}
	}
}
