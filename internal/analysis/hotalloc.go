package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc reports heap allocations in functions annotated
// //psdns:hotpath. These are the per-step and per-transform bodies
// whose allocs/op the bench gate pins at zero: one stray make per
// pencil is invisible at N=32 and catastrophic at scale.
//
// Flagged: make, new, append (may grow its backing array), map and
// slice literals, &composite literals (escape to the heap under
// aliasing), implicit interface conversions of non-pointer-shaped
// values (boxing), and func literals passed as call arguments that
// capture a variable (a closure built per call; one assigned or
// returned is staged at plan time and is not flagged), and math/rand's
// generator constructors (allocCtors). One
// non-allocation rides along because it costs the same paths the same
// way: an array literal inside a loop, rebuilt per iteration (the
// `[3]float64{kx, ky, kz}[comp]` per mode the flux kernels once carried).
// The check propagates one level into same-package callees, including through
// interface dispatch: a call to an interface method (the System plug-in
// pattern — a hot stepper invoking sys.Nonlinear) propagates into every
// same-package concrete method implementing it, since any of them can
// be the one on the hot path at runtime. Panic subtrees and guard clauses that end in panic
// are skipped: those are cold abort paths, not steady-state work.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid heap allocations in //psdns:hotpath functions and their direct same-package callees",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	decls := map[*types.Func]*ast.FuncDecl{}
	methodDecls := map[string][]*ast.FuncDecl{} // concrete methods by name
	hotSet := map[*ast.FuncDecl]bool{}
	var hot []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
				if fd.Recv != nil {
					methodDecls[fd.Name.Name] = append(methodDecls[fd.Name.Name], fd)
				}
			}
			if isHotpath(fd) {
				hot = append(hot, fd)
				hotSet[fd] = true
			}
		}
	}

	checked := map[*ast.FuncDecl]bool{}
	check := func(root string, cd *ast.FuncDecl) {
		if cd == nil || hotSet[cd] || checked[cd] {
			return
		}
		checked[cd] = true
		h := &hotChecker{pass: pass, root: root, callee: cd.Name.Name}
		h.checkDecl(cd)
	}
	for _, fd := range hot {
		h := &hotChecker{pass: pass, root: fd.Name.Name, collect: true}
		h.checkDecl(fd)
		for _, callee := range h.callees {
			check(fd.Name.Name, decls[callee])
		}
		// Interface dispatch: check every same-package implementation of
		// each interface method the hot function calls.
		for _, m := range h.ifaceCallees {
			iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if iface == nil {
				continue
			}
			for _, cd := range methodDecls[m.Name()] {
				obj, ok := pass.Info.Defs[cd.Name].(*types.Func)
				if !ok {
					continue
				}
				recv := obj.Type().(*types.Signature).Recv()
				if recv != nil && types.Implements(recv.Type(), iface) {
					check(fd.Name.Name, cd)
				}
			}
		}
	}
}

type hotChecker struct {
	pass         *Pass
	root         string // the //psdns:hotpath function this check is rooted at
	callee       string // non-empty when checking a propagated callee
	collect      bool   // gather same-package callees for propagation
	loops        int    // enclosing for/range depth of the node being checked
	callees      []*types.Func
	ifaceCallees []*types.Func // interface methods called (dispatch targets unknown statically)
}

func (h *hotChecker) report(pos token.Pos, what string) {
	if h.callee != "" {
		h.pass.Reportf(pos, "%s in %s, called from //psdns:hotpath function %s", what, h.callee, h.root)
	} else {
		h.pass.Reportf(pos, "%s in //psdns:hotpath function %s", what, h.root)
	}
}

func (h *hotChecker) checkDecl(fd *ast.FuncDecl) {
	var sig *types.Signature
	if t := h.pass.Info.TypeOf(fd.Name); t != nil {
		sig, _ = t.(*types.Signature)
	}
	h.stmt(fd.Body, sig)
}

// guardPanics reports whether an if statement is a cold guard clause:
// no else branch, body's last statement a call to panic.
func (h *hotChecker) guardPanics(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) == 0 {
		return false
	}
	last, ok := s.Body.List[len(s.Body.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := last.X.(*ast.CallExpr)
	return ok && isBuiltin(h.pass.Info, call, "panic")
}

func (h *hotChecker) stmt(s ast.Stmt, sig *types.Signature) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			h.stmt(st, sig)
		}
	case *ast.IfStmt:
		if h.guardPanics(s) {
			return // cold abort path
		}
		h.stmt(s.Init, sig)
		h.expr(s.Cond)
		h.stmt(s.Body, sig)
		h.stmt(s.Else, sig)
	case *ast.ForStmt:
		h.stmt(s.Init, sig)
		h.expr(s.Cond)
		h.loops++
		h.stmt(s.Post, sig)
		h.stmt(s.Body, sig)
		h.loops--
	case *ast.RangeStmt:
		h.expr(s.X)
		h.loops++
		h.stmt(s.Body, sig)
		h.loops--
	case *ast.SwitchStmt:
		h.stmt(s.Init, sig)
		h.expr(s.Tag)
		h.stmt(s.Body, sig)
	case *ast.TypeSwitchStmt:
		h.stmt(s.Init, sig)
		h.stmt(s.Assign, sig)
		h.stmt(s.Body, sig)
	case *ast.CaseClause:
		for _, e := range s.List {
			h.expr(e)
		}
		for _, st := range s.Body {
			h.stmt(st, sig)
		}
	case *ast.SelectStmt:
		h.stmt(s.Body, sig)
	case *ast.CommClause:
		h.stmt(s.Comm, sig)
		for _, st := range s.Body {
			h.stmt(st, sig)
		}
	case *ast.ExprStmt:
		h.expr(s.X)
	case *ast.SendStmt:
		h.expr(s.Chan)
		h.expr(s.Value)
		if t := h.pass.Info.TypeOf(s.Chan); t != nil {
			if ch, ok := t.Underlying().(*types.Chan); ok {
				h.checkBox(s.Value, ch.Elem())
			}
		}
	case *ast.IncDecStmt:
		h.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			h.expr(e)
		}
		for _, e := range s.Lhs {
			h.expr(e)
		}
		if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				h.checkBox(s.Rhs[i], h.pass.Info.TypeOf(s.Lhs[i]))
			}
		}
	case *ast.GoStmt:
		h.report(s.Pos(), "go statement allocates a goroutine")
		h.expr(s.Call)
	case *ast.DeferStmt:
		h.expr(s.Call)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			h.expr(e)
		}
		if sig != nil && sig.Results() != nil && len(s.Results) == sig.Results().Len() {
			for i, e := range s.Results {
				h.checkBox(e, sig.Results().At(i).Type())
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					h.expr(v)
					if vs.Type != nil {
						h.checkBox(v, h.pass.Info.TypeOf(vs.Type))
					}
				}
			}
		}
	case *ast.LabeledStmt:
		h.stmt(s.Stmt, sig)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (h *hotChecker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.ParenExpr:
		h.expr(e.X)
	case *ast.CallExpr:
		h.call(e)
	case *ast.CompositeLit:
		h.composite(e, false)
	case *ast.UnaryExpr:
		if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok && e.Op == token.AND {
			h.composite(cl, true)
			return
		}
		h.expr(e.X)
	case *ast.BinaryExpr:
		h.expr(e.X)
		h.expr(e.Y)
	case *ast.StarExpr:
		h.expr(e.X)
	case *ast.SelectorExpr:
		h.expr(e.X)
	case *ast.IndexExpr:
		h.expr(e.X)
		h.expr(e.Index)
	case *ast.IndexListExpr:
		h.expr(e.X)
	case *ast.SliceExpr:
		h.expr(e.X)
		h.expr(e.Low)
		h.expr(e.High)
		h.expr(e.Max)
	case *ast.TypeAssertExpr:
		h.expr(e.X)
	case *ast.KeyValueExpr:
		h.expr(e.Value)
	case *ast.FuncLit:
		// The closure's body runs on the hot path, so check it; the
		// closure value itself is created once per enclosing call and
		// is how the engines stage per-plan kernels, so its creation
		// is not flagged.
		var sig *types.Signature
		if t := h.pass.Info.TypeOf(e); t != nil {
			sig, _ = t.(*types.Signature)
		}
		h.stmt(e.Body, sig)
	}
}

// call handles builtins, conversions, and ordinary calls, including
// boxing checks of arguments against interface-typed parameters.
func (h *hotChecker) call(call *ast.CallExpr) {
	switch {
	case isBuiltin(h.pass.Info, call, "panic"):
		return // cold abort path: ignore everything inside
	case isBuiltin(h.pass.Info, call, "make"):
		h.report(call.Pos(), "call to make allocates")
	case isBuiltin(h.pass.Info, call, "new"):
		h.report(call.Pos(), "call to new allocates")
	case isBuiltin(h.pass.Info, call, "append"):
		h.report(call.Pos(), "append may grow its backing array and allocate")
	}

	if f := calleeFunc(h.pass.Info, call); f != nil && allocCtors[f.FullName()] {
		h.report(call.Pos(), "call to "+f.Pkg().Name()+"."+f.Name()+" allocates")
	}

	// Conversion to an interface type boxes the operand.
	if tv, ok := h.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		h.checkBox(call.Args[0], tv.Type)
		h.expr(call.Args[0])
		return
	}

	if f := calleeFunc(h.pass.Info, call); f != nil && h.collect {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				h.ifaceCallees = append(h.ifaceCallees, f)
			}
		}
		if f.Pkg() == h.pass.Pkg {
			h.callees = append(h.callees, f)
		}
	}
	if t := h.pass.Info.TypeOf(call.Fun); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			h.checkArgs(call, sig)
		}
	}

	h.expr(call.Fun)
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok && h.captures(lit) {
			h.report(lit.Pos(), "func literal passed as an argument builds a closure per call; stage it at plan time")
		}
		h.expr(a)
	}
}

// allocCtors are functions of other packages, by full name, that
// always allocate and that a per-mode loop has reached for: a random
// generator built per mode is a state of several kilobytes, seeded by
// thousands of steps, to draw a handful of values.
var allocCtors = map[string]bool{"math/rand.New": true, "math/rand.NewSource": true}

// captures reports whether lit refers to a variable declared outside it
// other than a package-level one: such a literal needs a closure object,
// which escapes whenever the callee retains it.
func (h *hotChecker) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := h.pass.Info.Uses[id].(*types.Var)
		if ok && !v.IsField() && v.Parent() != h.pass.Pkg.Scope() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			found = true
		}
		return !found
	})
	return found
}

// checkArgs flags arguments boxed into interface-typed parameters,
// including the variadic tail (the []any of a printf-style call).
func (h *hotChecker) checkArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		h.checkBox(arg, pt)
	}
}

// checkBox reports e if assigning it to target boxes a value on the
// heap: target is an interface and e's type is concrete and not
// pointer-shaped. Constants are skipped (their descriptors are
// static), as are nils and values that are already interfaces.
func (h *hotChecker) checkBox(e ast.Expr, target types.Type) {
	if e == nil || target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := h.pass.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return
	}
	src := tv.Type
	if b, ok := src.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch src.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: stored directly in the interface word
	}
	h.report(e.Pos(), "interface conversion of "+types.TypeString(src, types.RelativeTo(h.pass.Pkg))+" allocates (boxing)")
}

// composite flags map and slice literals (always heap-backed),
// address-taken composite literals (escape under aliasing) and array
// literals inside a loop. Plain struct literals, and array literals
// outside loops, are stack objects and pass.
func (h *hotChecker) composite(cl *ast.CompositeLit, addressed bool) {
	t := h.pass.Info.TypeOf(cl)
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			h.report(cl.Pos(), "map literal allocates")
		case *types.Slice:
			h.report(cl.Pos(), "slice literal allocates")
		default:
			_, array := t.Underlying().(*types.Array)
			switch {
			case addressed:
				h.report(cl.Pos(), "&composite literal escapes to the heap")
			case array && h.loops > 0:
				// Not an allocation, but a loop body on these paths runs
				// per mode: the array is rebuilt (and, indexed dynamically,
				// spilled to the stack) every iteration.
				h.report(cl.Pos(), "array literal in a loop is rebuilt every iteration; hoist it or select the element directly")
			}
		}
	}
	for _, el := range cl.Elts {
		h.expr(el)
	}
}
