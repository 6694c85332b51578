package analysis

import (
	"go/ast"
	"strings"
)

// LockOrder is the static counterpart of the PR-2 stall watchdog. It
// applies only to the mpi package, whose locking discipline is: a
// goroutine holds at most one runtime mutex at a time when it can
// block or wake someone else. Concretely, while a mutex is held it is
// a violation to
//
//   - send on a channel — the receiver may need the held lock;
//   - call cond.Wait with a second mutex held — Wait releases only
//     its own mutex, so the other one is held across the sleep.
//
// Function literals are separate goroutine bodies (time.AfterFunc
// callbacks) and start with no locks held.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no channel sends or nested cond.Wait while holding a mutex in internal/mpi",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	if pass.Pkg == nil {
		return
	}
	if pass.Pkg.Name() != "mpi" && !strings.HasSuffix(pass.Pkg.Path(), "/mpi") {
		return
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &lockWalker{pass: pass}
				w.block(fd.Body.List, 0)
			}
		}
	}
}

type lockWalker struct {
	pass *Pass
}

// block walks a statement list tracking how many mutexes are held
// after each statement, and returns the resulting depth.
func (w *lockWalker) block(stmts []ast.Stmt, depth int) int {
	for _, s := range stmts {
		depth = w.stmt(s, depth)
	}
	return depth
}

func (w *lockWalker) stmt(s ast.Stmt, depth int) int {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		depth = w.block(s.List, depth)
	case *ast.ExprStmt:
		return w.exprDepth(s.X, depth)
	case *ast.DeferStmt:
		// Deferred unlocks run at exit: the lock stays held for the
		// rest of the body, so the depth is unchanged.
		if w.lockDelta(s.Call) >= 0 {
			w.exprViolations(s.Call, depth)
		}
	case *ast.SendStmt:
		if depth >= 1 {
			w.pass.Reportf(s.Arrow, "channel send while holding a mutex")
		}
		w.exprViolations(s.Chan, depth)
		w.exprViolations(s.Value, depth)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprViolations(e, depth)
		}
		for _, e := range s.Lhs {
			w.exprViolations(e, depth)
		}
	case *ast.IfStmt:
		depth = w.stmt(s.Init, depth)
		w.exprViolations(s.Cond, depth)
		w.stmt(s.Body, depth)
		w.stmt(s.Else, depth)
	case *ast.ForStmt:
		depth = w.stmt(s.Init, depth)
		w.exprViolations(s.Cond, depth)
		w.stmt(s.Body, depth)
		w.stmt(s.Post, depth)
	case *ast.RangeStmt:
		w.exprViolations(s.X, depth)
		w.stmt(s.Body, depth)
	case *ast.SwitchStmt:
		depth = w.stmt(s.Init, depth)
		w.exprViolations(s.Tag, depth)
		w.stmt(s.Body, depth)
	case *ast.TypeSwitchStmt:
		depth = w.stmt(s.Init, depth)
		w.stmt(s.Assign, depth)
		w.stmt(s.Body, depth)
	case *ast.SelectStmt:
		w.stmt(s.Body, depth)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.exprViolations(e, depth)
		}
		w.block(s.Body, depth)
	case *ast.CommClause:
		w.stmt(s.Comm, depth)
		w.block(s.Body, depth)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.exprViolations(e, depth)
		}
	case *ast.GoStmt:
		w.exprViolations(s.Call, depth)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, depth)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
	}
	return depth
}

// exprDepth handles a statement-level expression, applying any
// Lock/Unlock depth change after reporting violations inside it.
func (w *lockWalker) exprDepth(e ast.Expr, depth int) int {
	w.exprViolations(e, depth)
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		depth += w.lockDelta(call)
		if depth < 0 {
			depth = 0
		}
	}
	return depth
}

// lockDelta returns +1 for Lock/RLock on a sync mutex, -1 for
// Unlock/RUnlock, 0 otherwise.
func (w *lockWalker) lockDelta(call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	t := w.pass.Info.TypeOf(sel.X)
	if !isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex") {
		return 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return +1
	case "Unlock", "RUnlock":
		return -1
	}
	return 0
}

// exprViolations reports blocking operations reached inside an
// expression at the given lock depth. Function literals reset the
// depth: they run on their own goroutine or after the locks unwind.
func (w *lockWalker) exprViolations(e ast.Expr, depth int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.block(n.Body.List, 0)
			return false
		case *ast.CallExpr:
			w.checkCall(n, depth)
		}
		return true
	})
}

func (w *lockWalker) checkCall(call *ast.CallExpr, depth int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sel.Sel.Name == "Wait" && depth >= 2 && isNamed(w.pass.Info.TypeOf(sel.X), "sync", "Cond") {
		w.pass.Reportf(call.Pos(), "cond.Wait while holding a second mutex: Wait only releases its own mutex")
	}
}
