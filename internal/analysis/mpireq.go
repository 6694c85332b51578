package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MPIReq enforces the runtime's nonblocking-communication contract:
//
//  1. every *mpi.Request produced by a nonblocking call (Ialltoall)
//     must reach Wait on every path, or be handed off
//     (stored, returned, passed to another function); a dropped
//     request leaks its drain goroutine and leaves the watchdog
//     counting a phantom pending operation;
//  2. tag arguments of mpi point-to-point and collective calls must
//     be named constants. A raw literal tag is how two call sites
//     silently collide in the per-(src,dst) mailbox key space.
var MPIReq = &Analyzer{
	Name: "mpireq",
	Doc:  "nonblocking mpi requests must reach Wait on all paths; tags must be named constants",
	Run:  runMPIReq,
}

// returnsRequest reports whether the call's single result is (a
// pointer to) mpi.Request.
func returnsRequest(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	return t != nil && isNamed(t, "mpi", "Request")
}

// isRequestCompletion reports whether the call is obj.Wait().
func isRequestCompletion(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Wait" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

func runMPIReq(pass *Pass) {
	tr := &tracker{
		pass: pass,
		isAcquire: func(call *ast.CallExpr) string {
			if !returnsRequest(pass.Info, call) {
				return ""
			}
			if f := calleeFunc(pass.Info, call); f != nil {
				return "mpi." + f.Name()
			}
			return "a nonblocking call"
		},
		isRelease: func(call *ast.CallExpr, obj types.Object) bool {
			return isRequestCompletion(pass.Info, call, obj)
		},
		leak: func(desc, where string) string {
			return "request from " + desc + " may not reach Wait on " + where +
				"; complete it, or hand it off"
		},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tr.run(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					tr.run(lit.Body)
				}
				return true
			})
		}
	}

	checkRawTags(pass)
}

// checkRawTags flags integer literals passed to tag parameters of
// mpi functions. The parameter name (tag) comes from the mpi
// package's signatures, so the check tracks the real API.
func checkRawTags(pass *Pass) {
	if pass.Pkg != nil && pass.Pkg.Name() == "mpi" {
		return // the runtime's own internals define the tag spaces
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "mpi" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			for i := 0; i < params.Len() && i < len(call.Args); i++ {
				if lit := intLiteral(call.Args[i]); lit != nil && params.At(i).Name() == "tag" {
					pass.Reportf(lit.Pos(), "raw tag literal %s in call to mpi.%s; use a named constant",
						lit.Value, fn.Name())
				}
			}
			return true
		})
	}
}

// intLiteral returns the integer literal an argument is, unwrapping
// a unary minus, or nil.
func intLiteral(e ast.Expr) *ast.BasicLit {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.INT {
		return lit
	}
	return nil
}
