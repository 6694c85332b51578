package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the shared control-flow-graph infrastructure the
// interprocedural analyzers (collsym, planfree via the tracker) build
// on. Like the rest of the package it is stdlib-only: a deliberately
// small structured-CFG builder over go/ast, not a general-purpose one
// — it models exactly the control flow the analyzers reason about
// (branches, loops, switches, early returns, breaks/continues,
// panic/fatal terminators) and treats everything else as
// straight-line code.
//
// Blocks hold the statements and header expressions evaluated in
// them, in source order. A block that ends in a multi-way branch
// records the controlling expressions in Cond (the if condition, the
// for condition, the switch tag or — for a tagless switch — every
// case expression), so clients can ask whether the branch is
// rank-dependent. Function literals are NOT descended into: creating
// a closure is not executing it, and clients analyze closure bodies
// as functions of their own.

// A Block is one straight-line run of statements with its outgoing
// edges. For a two-way branch Succs[0] is the true edge and Succs[1]
// the false edge; switches have one successor per case plus the
// implicit-default join when no default clause exists.
type Block struct {
	Nodes []ast.Node // leaf statements / header exprs, in source order
	Succs []*Block
	Cond  []ast.Node // controlling exprs when len(Succs) > 1 (nil for select)
	Abort bool       // ends in panic/os.Exit/log.Fatal: an abort, not a schedule
}

// A CFG is the control-flow graph of one function body. Exit is the
// single virtual exit block every return, panic and fall-off-the-end
// path reaches.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

type cfgBuilder struct {
	info *types.Info
	cfg  *CFG
	cur  *Block

	// break/continue target stacks, innermost last; labels map a
	// label name to the loop/switch targets it governs.
	brk    []*Block
	cont   []*Block
	labels map[string]*labelTarget
}

type labelTarget struct {
	brk  *Block
	cont *Block // nil for labeled switches
}

// BuildCFG constructs the CFG of one function body. The body may be a
// FuncDecl's or a FuncLit's.
func BuildCFG(info *types.Info, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{info: info, cfg: &CFG{}, labels: map[string]*labelTarget{}}
	b.cfg.Exit = b.newBlock()
	b.cfg.Entry = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// terminate ends the current block with an edge to target and starts
// an unreachable successor for any dead code that follows.
func (b *cfgBuilder) terminate(target *Block) {
	b.edge(b.cur, target)
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		b.labeled(s)
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.terminate(b.cfg.Exit)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, nil)
	case *ast.RangeStmt:
		b.rangeStmt(s, nil)
	case *ast.SwitchStmt:
		b.switchStmt(s, nil)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, nil)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminatorCall(b.info, call) {
			b.cur.Abort = true
			b.terminate(b.cfg.Exit)
		}
	default:
		// Assignments, declarations, sends, defers, go statements,
		// inc/dec: straight-line nodes.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *cfgBuilder) labeled(s *ast.LabeledStmt) {
	name := s.Label.Name
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, func(brk, cont *Block) {
			b.labels[name] = &labelTarget{brk: brk, cont: cont}
		})
	case *ast.RangeStmt:
		b.rangeStmt(inner, func(brk, cont *Block) {
			b.labels[name] = &labelTarget{brk: brk, cont: cont}
		})
	case *ast.SwitchStmt:
		b.switchStmt(inner, func(brk *Block) {
			b.labels[name] = &labelTarget{brk: brk}
		})
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, func(brk *Block) {
			b.labels[name] = &labelTarget{brk: brk}
		})
	default:
		b.stmt(s.Stmt)
	}
	delete(b.labels, name)
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	var target *Block
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil {
				target = lt.brk
			}
		} else if len(b.brk) > 0 {
			target = b.brk[len(b.brk)-1]
		}
	case "continue":
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil {
				target = lt.cont
			}
		} else if len(b.cont) > 0 {
			target = b.cont[len(b.cont)-1]
		}
	case "goto":
		// Rare in this tree; modeled leniently as function exit so
		// both arms of any enclosing branch see the same treatment.
		target = b.cfg.Exit
	case "fallthrough":
		// Wired by switchStmt via the next-case entry recorded there;
		// reaching here means a malformed tree — treat as exit.
		target = b.cfg.Exit
	}
	if target == nil {
		target = b.cfg.Exit
	}
	b.terminate(target)
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.stmt(s.Init)
	b.cur.Nodes = append(b.cur.Nodes, s.Cond)
	head := b.cur
	head.Cond = []ast.Node{s.Cond}

	join := b.newBlock()
	then := b.newBlock()
	head.Succs = append(head.Succs, then)
	b.cur = then
	b.stmts(s.Body.List)
	b.edge(b.cur, join)

	if s.Else != nil {
		els := b.newBlock()
		head.Succs = append(head.Succs, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, join)
	} else {
		head.Succs = append(head.Succs, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label func(brk, cont *Block)) {
	b.stmt(s.Init)
	head := b.newBlock()
	b.edge(b.cur, head)
	body := b.newBlock()
	after := b.newBlock()
	post := b.newBlock()
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		head.Cond = []ast.Node{s.Cond}
		head.Succs = append(head.Succs, body, after)
	} else {
		head.Succs = append(head.Succs, body)
	}
	if label != nil {
		label(after, post)
	}
	b.brk = append(b.brk, after)
	b.cont = append(b.cont, post)
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, post)
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
	b.cur = post
	b.stmt(s.Post)
	b.edge(b.cur, head)
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label func(brk, cont *Block)) {
	b.cur.Nodes = append(b.cur.Nodes, s.X)
	head := b.newBlock()
	b.edge(b.cur, head)
	body := b.newBlock()
	after := b.newBlock()
	head.Cond = []ast.Node{s.X}
	head.Succs = append(head.Succs, body, after)
	if label != nil {
		label(after, head)
	}
	b.brk = append(b.brk, after)
	b.cont = append(b.cont, head)
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, head)
	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label func(brk *Block)) {
	b.stmt(s.Init)
	if s.Tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Tag)
	}
	head := b.cur
	join := b.newBlock()
	if label != nil {
		label(join)
	}
	if s.Tag != nil {
		head.Cond = []ast.Node{s.Tag}
	}

	// Collect clause entries first so fallthrough can target the next
	// case's body.
	var clauses []*ast.CaseClause
	for _, cs := range s.Body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	entries := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		entries[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		if s.Tag == nil {
			for _, e := range cc.List {
				head.Cond = append(head.Cond, e)
			}
		}
	}
	for i, cc := range clauses {
		head.Succs = append(head.Succs, entries[i])
		// Case guard expressions are evaluated at the head.
		for _, e := range cc.List {
			head.Nodes = append(head.Nodes, e)
		}
		b.brk = append(b.brk, join)
		b.cur = entries[i]
		// A fallthrough as the clause's last statement chains to the
		// next clause's entry.
		list := cc.Body
		ft := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				list, ft = list[:n-1], true
			}
		}
		b.stmts(list)
		if ft && i+1 < len(entries) {
			b.edge(b.cur, entries[i+1])
			b.cur = b.newBlock()
		}
		b.edge(b.cur, join)
		b.brk = b.brk[:len(b.brk)-1]
	}
	if !hasDefault {
		head.Succs = append(head.Succs, join)
	}
	b.cur = join
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label func(brk *Block)) {
	b.stmt(s.Init)
	b.cur.Nodes = append(b.cur.Nodes, s.Assign)
	head := b.cur
	if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
			head.Cond = []ast.Node{ta.X}
		}
	} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
		if ta, ok := ast.Unparen(es.X).(*ast.TypeAssertExpr); ok {
			head.Cond = []ast.Node{ta.X}
		}
	}
	join := b.newBlock()
	if label != nil {
		label(join)
	}
	hasDefault := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		entry := b.newBlock()
		head.Succs = append(head.Succs, entry)
		b.brk = append(b.brk, join)
		b.cur = entry
		b.stmts(cc.Body)
		b.edge(b.cur, join)
		b.brk = b.brk[:len(b.brk)-1]
	}
	if !hasDefault {
		head.Succs = append(head.Succs, join)
	}
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	join := b.newBlock()
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		entry := b.newBlock()
		head.Succs = append(head.Succs, entry)
		b.brk = append(b.brk, join)
		b.cur = entry
		if cc.Comm != nil {
			b.cur.Nodes = append(b.cur.Nodes, cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, join)
		b.brk = b.brk[:len(b.brk)-1]
	}
	if !any {
		head.Succs = append(head.Succs, join)
	}
	b.cur = join
}

// isTerminatorCall reports whether a call never returns: panic,
// os.Exit, log.Fatal*, runtime.Goexit, and the testing Fatal family
// are the spellings this tree uses.
func isTerminatorCall(info *types.Info, call *ast.CallExpr) bool {
	if isBuiltin(info, call, "panic") {
		return true
	}
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Name() {
	case "os":
		return f.Name() == "Exit"
	case "log":
		switch f.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "runtime":
		return f.Name() == "Goexit"
	}
	return false
}
