package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tracker is a lenient path-sensitive resource tracker shared by
// poolpair and planfree. A resource is born when an acquire call is
// bound to a local variable, and dies when it is released, when
// ownership escapes (the variable is passed to a call, returned,
// stored, or aliased), or when the path ends in panic. A resource
// still live at a return or at function end is a leak.
//
// Element access (buf[i], buf[i:j] kept local, len/cap, range) does
// not transfer ownership, so ordinary use of a checked-out buffer
// keeps it tracked until an explicit release or escape.
type tracker struct {
	pass *Pass
	// isAcquire returns a short description ("pool.GetComplex") if the
	// call checks out a resource, else "".
	isAcquire func(call *ast.CallExpr) string
	// isRelease reports whether the call releases obj.
	isRelease func(call *ast.CallExpr, obj types.Object) bool
	// leak formats the diagnostic for a resource that may not be
	// released on some path.
	leak func(desc, where string) string
}

type liveRes struct {
	pos  token.Pos
	desc string
}

type liveSet map[types.Object]*liveRes

func (s liveSet) clone() liveSet {
	c := make(liveSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// run analyzes one function body.
func (t *tracker) run(body *ast.BlockStmt) {
	reported := map[types.Object]bool{}
	live := liveSet{}
	t.block(body.List, live, reported)
	t.flush(live, "function exit", reported)
}

func (t *tracker) flush(live liveSet, where string, reported map[types.Object]bool) {
	for obj, r := range live {
		if reported[obj] {
			continue
		}
		reported[obj] = true
		t.pass.Reportf(r.pos, "%s", t.leak(r.desc, where))
	}
	clear(live)
}

func (t *tracker) block(stmts []ast.Stmt, live liveSet, reported map[types.Object]bool) {
	for _, s := range stmts {
		t.stmt(s, live, reported)
	}
}

// merge keeps a resource live if it is live on either incoming path;
// terminated paths (return, panic) arrive with empty sets and so
// contribute nothing.
func merge(dst, a, b liveSet) {
	clear(dst)
	for k, v := range a {
		dst[k] = v
	}
	for k, v := range b {
		dst[k] = v
	}
}

func (t *tracker) stmt(s ast.Stmt, live liveSet, reported map[types.Object]bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		t.block(s.List, live, reported)
	case *ast.IfStmt:
		t.stmt(s.Init, live, reported)
		t.scan(s.Cond, live, nil, nil)
		then := live.clone()
		t.stmt(s.Body, then, reported)
		els := live.clone()
		t.stmt(s.Else, els, reported)
		merge(live, then, els)
	case *ast.ForStmt:
		t.stmt(s.Init, live, reported)
		t.scan(s.Cond, live, nil, nil)
		body := live.clone()
		t.stmt(s.Post, body, reported)
		t.stmt(s.Body, body, reported)
		merge(live, live.clone(), body)
	case *ast.RangeStmt:
		t.scan(s.X, live, nil, nil)
		body := live.clone()
		t.stmt(s.Body, body, reported)
		merge(live, live.clone(), body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		t.branches(s, live, reported)
	case *ast.LabeledStmt:
		t.stmt(s.Stmt, live, reported)
	case *ast.ReturnStmt:
		t.leafStmt(s, live, nil)
		t.flush(live, "this return path", reported)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isBuiltin(t.pass.Info, call, "panic") {
			clear(live) // abort path: not a leak
			return
		}
		t.leafStmt(s, live, nil)
	case *ast.DeferStmt:
		// A deferred release holds the resource to function end,
		// which is exactly the pairing the analyzers want.
		t.leafStmt(s, live, nil)
	default:
		t.leafStmt(s, live, nil)
	}
}

// branches walks each case/comm clause of a switch or select from a
// copy of the incoming state and merges the outcomes.
func (t *tracker) branches(s ast.Stmt, live liveSet, reported map[types.Object]bool) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		t.stmt(s.Init, live, reported)
		t.scan(s.Tag, live, nil, nil)
		body = s.Body
	case *ast.TypeSwitchStmt:
		t.stmt(s.Init, live, reported)
		t.leafStmt(s.Assign, live, nil)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := liveSet{}
	for _, cs := range body.List {
		br := live.clone()
		switch cs := cs.(type) {
		case *ast.CaseClause:
			t.block(cs.Body, br, reported)
		case *ast.CommClause:
			t.stmt(cs.Comm, br, reported)
			t.block(cs.Body, br, reported)
		}
		merge(out, out.clone(), br)
	}
	// A switch with no default may fall through untouched.
	merge(live, live.clone(), out)
}

// leafStmt applies the generic acquire/release/escape semantics to a
// straight-line statement.
func (t *tracker) leafStmt(s ast.Stmt, live liveSet, _ map[types.Object]bool) {
	// 1. Releases anywhere in the statement.
	released := map[ast.Node]bool{}
	ast.Inspect(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for obj := range live {
			if t.isRelease(call, obj) {
				delete(live, obj)
				released[call] = true
			}
		}
		return true
	})

	// 2. Acquires bound to plain local variables.
	bound := map[*ast.Ident]bool{}
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Rhs {
				call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr)
				if !ok {
					continue
				}
				desc := t.isAcquire(call)
				if desc == "" {
					continue
				}
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue // stored straight into a field/slot: ownership transferred
				}
				obj := t.pass.Info.Defs[id]
				if obj == nil {
					obj = t.pass.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				live[obj] = &liveRes{pos: call.Pos(), desc: desc}
				bound[id] = true
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, v := range vs.Values {
					call, ok := ast.Unparen(v).(*ast.CallExpr)
					if !ok {
						continue
					}
					desc := t.isAcquire(call)
					if desc == "" {
						continue
					}
					id := vs.Names[i]
					if obj := t.pass.Info.Defs[id]; obj != nil && id.Name != "_" {
						live[obj] = &liveRes{pos: call.Pos(), desc: desc}
						bound[id] = true
					}
				}
			}
		}
	}

	// 3. Escaping uses transfer ownership and end tracking.
	t.scan(s, live, bound, released)
}

// scan removes from live every resource whose variable escapes within
// n: passed to a call, returned, stored, aliased, sent, or captured.
func (t *tracker) scan(n ast.Node, live liveSet, bound map[*ast.Ident]bool, released map[ast.Node]bool) {
	if n == nil || len(live) == 0 {
		return
	}
	var stack []ast.Node
	ast.Inspect(n, func(nd ast.Node) bool {
		if nd == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if released != nil && released[nd] {
			return false // inside a recognized release call; not pushed
		}
		if id, ok := nd.(*ast.Ident); ok && !bound[id] {
			if obj := t.pass.Info.Uses[id]; obj != nil {
				if _, tracked := live[obj]; tracked && escapes(stack, id) {
					delete(live, obj)
				}
			}
		}
		stack = append(stack, nd)
		return true
	})
}

// escapes decides whether an occurrence of a tracked variable hands
// its ownership away. Benign contexts — indexing, slicing kept in
// expression position, len/cap, comparisons, range — keep tracking.
func escapes(stack []ast.Node, id *ast.Ident) bool {
	child := ast.Node(id)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.StarExpr, *ast.UnaryExpr, *ast.KeyValueExpr:
			child = p
		case *ast.SelectorExpr:
			child = p
		case *ast.IndexExpr:
			return false // element access, not the resource itself
		case *ast.SliceExpr:
			if p.X != child {
				return false // index position
			}
			child = p // a slice aliases the buffer: keep climbing
		case *ast.BinaryExpr:
			return false // comparison/arithmetic on the value
		case *ast.CallExpr:
			if e, ok := child.(ast.Expr); ok {
				if p.Fun == e && !isSelectorOf(p.Fun, id) {
					child = p
					continue // calling a function value: result climbs
				}
			}
			if isLenCap(p) {
				return false
			}
			return true // argument or method receiver: ownership may escape
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if r == child {
					return !allBlank(p.Lhs)
				}
			}
			return false // lhs occurrence: element store via index was already handled
		case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.GoStmt, *ast.DeferStmt:
			return true
		case *ast.ExprStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.BlockStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.CaseClause,
			*ast.CommClause, *ast.IncDecStmt, *ast.LabeledStmt:
			return false
		default:
			return true // unknown context: assume it escapes (lenient)
		}
	}
	return false
}

// isSelectorOf reports whether fun is a selector whose base is id,
// i.e. a method call on the tracked variable itself.
func isSelectorOf(fun ast.Expr, id *ast.Ident) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && base == id
}

func isLenCap(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && (id.Name == "len" || id.Name == "cap")
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
