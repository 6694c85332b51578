package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PlanFree enforces the plan lifecycle: every
// NewExchangePlan*/NewReducePlan value must reach a
// Free/Close on all paths. A freed plan deregisters its barrier on
// every rank; a leaked one leaves phantom participants that deadlock
// the next collective — the PR-7 leak class.
//
// Locals are tracked path-sensitively (escape to a call, return or
// store transfers ownership). Plans that escape into struct fields are
// checked package-wide at their owner's Close site: a field that
// receives a plan anywhere must be freed somewhere in the package —
// directly (x.f.Free()), through an index (x.f[i].Free()), or by
// ranging over the field and freeing each element.
var PlanFree = &Analyzer{
	Name: "planfree",
	Doc:  "every constructed mpi plan must reach Free/Close on all paths, including field-owned plans",
	Run:  runPlanFree,
}

func runPlanFree(pass *Pass) {
	tr := &tracker{
		pass: pass,
		isAcquire: func(call *ast.CallExpr) string {
			return planFactoryDesc(pass.Info, call)
		},
		isRelease: func(call *ast.CallExpr, obj types.Object) bool {
			return isPlanRelease(pass.Info, call, obj)
		},
		leak: func(desc, where string) string {
			return "plan from " + desc + " may not reach Free on " + where +
				"; free it or hand ownership to a struct the engine closes"
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

	checkFieldPlans(pass)
}

// planFactoryDesc describes a call that constructs a plan: its result
// is (a pointer to) an mpi plan type and its callee is spelled like a
// factory (mpi's New*, a same-package new*/build* helper, or a local
// closure such as core's newExch). Accessor calls that merely return
// an existing plan do not match.
func planFactoryDesc(info *types.Info, call *ast.CallExpr) string {
	if planTypeName(info.TypeOf(call)) == "" {
		return ""
	}
	name := ""
	switch fun := calleeExpr(call).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	for _, p := range [...]string{"New", "new", "Mk", "mk", "Make", "make", "Build", "build"} {
		if strings.HasPrefix(name, p) {
			return name
		}
	}
	return ""
}

// isPlanRelease reports whether the call is obj.Free() or obj.Close().
func isPlanRelease(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Free" && sel.Sel.Name != "Close") {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// checkFieldPlans matches plan stores into struct fields against free
// sites anywhere in the package.
func checkFieldPlans(pass *Pass) {
	type store struct {
		pos   token.Pos
		owner string
	}
	stores := map[*types.Var]store{} // field -> first store
	freed := map[*types.Var]bool{}

	record := func(field *types.Var, pos token.Pos) {
		if field == nil || field.Pkg() != pass.Pkg {
			return // cross-package owner: its Free lives out of this unit
		}
		if prev, ok := stores[field]; !ok || pos < prev.pos {
			stores[field] = store{pos: pos, owner: fieldOwnerName(field)}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) != len(n.Lhs) {
					return true // tuple assignment never yields a bare plan
				}
				for i, lhs := range n.Lhs {
					field := fieldOf(pass.Info, lhs)
					if field != nil && storesPlan(pass.Info, n.Rhs[i]) {
						record(field, lhs.Pos())
					}
				}
			case *ast.CompositeLit:
				st, fields := structLitFields(pass.Info, n)
				if st == nil {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if planTypeName(pass.Info.TypeOf(kv.Value)) == "" {
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if fv, ok := pass.Info.Uses[id].(*types.Var); ok {
								record(fv, kv.Pos())
							}
						}
					} else if i < len(fields) && planTypeName(pass.Info.TypeOf(elt)) != "" {
						record(fields[i], elt.Pos())
					}
				}
			case *ast.CallExpr:
				// x.f.Free(), x.f[i].Free(), x.f.Close()
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Free" && sel.Sel.Name != "Close") {
					return true
				}
				if field := fieldOf(pass.Info, sel.X); field != nil {
					freed[field] = true
				}
			case *ast.RangeStmt:
				// for _, pl := range x.f { pl.Free() }
				field := fieldOf(pass.Info, n.X)
				if field == nil {
					return true
				}
				val, _ := n.Value.(*ast.Ident)
				if val == nil {
					return true
				}
				obj := pass.Info.Defs[val]
				if obj == nil {
					return true
				}
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && isPlanRelease(pass.Info, call, obj) {
						freed[field] = true
					}
					return true
				})
			}
			return true
		})
	}

	type finding struct {
		pos   token.Pos
		field *types.Var
		owner string
	}
	var out []finding
	for field, s := range stores {
		if !freed[field] {
			out = append(out, finding{pos: s.pos, field: field, owner: s.owner})
		}
	}
	for _, f := range out {
		pass.Reportf(f.pos, "plan stored in field %s.%s is never freed in this package; "+
			"free it in the owner's Close (leaked plans keep their barrier registered on every rank)",
			f.owner, f.field.Name())
	}
}

// fieldOf resolves an expression to the struct field it denotes,
// unwrapping parens and index/slice access (x.f, x.f[i], (x.f)).
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if fv, ok := sel.Obj().(*types.Var); ok {
					// A generic owner's field is a distinct Var per
					// instantiation (each method's receiver is one);
					// Origin is the declared field they all share.
					return fv.Origin()
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// storesPlan reports whether the assigned value puts a plan into the
// target: a plan-typed expression, or an append whose added elements
// include one.
func storesPlan(info *types.Info, rhs ast.Expr) bool {
	rhs = ast.Unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
		for _, a := range call.Args[1:] {
			if planTypeName(info.TypeOf(a)) != "" {
				return true
			}
		}
		return false
	}
	return planTypeName(info.TypeOf(rhs)) != ""
}

// structLitFields returns the struct type of a composite literal and
// its fields in declaration order, for positional literals.
func structLitFields(info *types.Info, lit *ast.CompositeLit) (*types.Struct, []*types.Var) {
	t := info.TypeOf(lit)
	if t == nil {
		return nil, nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	return st, fields
}

// fieldOwnerName names the struct type a field belongs to, best
// effort, for diagnostics.
func fieldOwnerName(field *types.Var) string {
	if field.Pkg() == nil {
		return "?"
	}
	// The field's parent type name is not directly reachable from the
	// Var; scan the package scope for the named type that declares it.
	scope := field.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn.Name()
			}
		}
	}
	return "?"
}
