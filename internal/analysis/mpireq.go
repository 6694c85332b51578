package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MPIReq enforces the runtime's tag contract: tag arguments of mpi
// point-to-point and collective calls must be named constants. A raw
// literal tag is how two call sites silently collide in the
// per-(src,dst) mailbox key space.
var MPIReq = &Analyzer{
	Name: "mpireq",
	Doc:  "tags of mpi calls must be named constants",
	Run:  checkRawTags,
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
