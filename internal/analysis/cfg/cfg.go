// Package cfg builds intra-procedural control-flow graphs over go/ast —
// ecavet's second analysis tier. Where the PR 5 analyzers reasoned
// positionally ("a Sync call textually before the Rename"), the tier-2
// analyzers (fencedwrite, goroleak, iodeadline) ask flow questions: does
// a Validate call *reach* this Exec, can this goroutine's function *exit*,
// does a blocking call run on a path with no deadline set before it. A
// Graph answers those with basic blocks and edges for if/for/range/
// switch/select/goto/labeled break/continue, plus the non-local exits:
// return, panic and the never-returning terminators (os.Exit, log.Fatal*)
// all edge to the synthetic Exit block.
//
// The graph is deliberately syntactic: one block holds a maximal run of
// statements with one entry, edges are possible successions, and no
// attempt is made to prune infeasible branches. Expressions stay inside
// their statement node — analyzers scan a block's Nodes with Visit (which
// skips nested function literals, since those are separate CFGs).
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: statements (and control-heading
// expressions) that execute as a straight line, leaving through Succs.
type Block struct {
	Index int    // position in Graph.Blocks
	Kind  string // debugging label: "entry", "exit", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []*Block
}

// A Graph is one function body's control-flow graph. Entry starts the
// body; Exit is the single synthetic sink every return, panic,
// terminator call and normal fall-off edges to. Defers collects the
// defer statements in source order: they run on every path to Exit
// (including unwinding panics — a deferred recover is why panic edges
// to Exit instead of vanishing), but are not given blocks of their own.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Defers []*ast.DeferStmt
}

// New builds the graph for one function body. A nil body (declaration
// without definition) yields a two-block graph with Entry→Exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*labelInfo{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	if b.cur != nil {
		edge(b.cur, b.g.Exit)
	}
	return b.g
}

// FuncGraph builds the graph for a *ast.FuncDecl or *ast.FuncLit.
func FuncGraph(fn ast.Node) *Graph {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return New(f.Body)
	case *ast.FuncLit:
		return New(f.Body)
	}
	return New(nil)
}

// ReachableFrom returns the set of blocks reachable from b by following
// one or more edges; b itself is included only when it sits on a cycle.
func (g *Graph) ReachableFrom(b *Block) map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(x *Block) {
		for _, s := range x.Succs {
			if !seen[s] {
				seen[s] = true
				walk(s)
			}
		}
	}
	walk(b)
	return seen
}

// Live returns the blocks reachable from Entry (including Entry): the
// complement is dead code — blocks after a return/panic/terminator that
// no goto or label resurrects.
func (g *Graph) Live() map[*Block]bool {
	live := g.ReachableFrom(g.Entry)
	live[g.Entry] = true
	return live
}

// Visit calls f for every node of every block, in block order. Nested
// function literals are not descended into — a FuncLit is visited as a
// single node, because its body's flow belongs to its own Graph.
func (g *Graph) Visit(f func(b *Block, i int, n ast.Node)) {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			Inspect(n, func(x ast.Node) { f(b, i, x) })
		}
	}
}

// Inspect walks n's subtree in source order, skipping the bodies of
// nested function literals, and calls f on every node.
func Inspect(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		f(x)
		_, isLit := x.(*ast.FuncLit)
		return !isLit
	})
}

// builder holds the construction state.
type builder struct {
	g   *Graph
	cur *Block // nil when the current point is unreachable

	labels map[string]*labelInfo
	// loop/switch/select context stacks for plain break/continue.
	breaks    []*Block
	continues []*Block
	// fallthrough target of the case body being built, if any.
	nextCase *Block
}

// labelInfo carries one label's jump targets. Goto is the block at the
// labeled statement (created on first reference, so forward gotos — and
// gotos into loop bodies — resolve); Brk/Cont are set when the labeled
// statement is a loop (or switch/select, Brk only).
type labelInfo struct {
	Goto *Block
	Brk  *Block
	Cont *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// here returns the current block, materializing an unreachable one when
// flow has ended (dead code after return/panic still gets blocks, with
// no predecessors, so analyzers can see — and reachability queries can
// ignore — it).
func (b *builder) here() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) { blk := b.here(); blk.Nodes = append(blk.Nodes, n) }

func (b *builder) label(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{Goto: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		edge(b.here(), li.Goto)
		b.cur = li.Goto
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.forStmt(inner, li)
		case *ast.RangeStmt:
			b.rangeStmt(inner, li)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// A labeled switch/select: `break label` leaves it.
			after := b.newBlock("label." + s.Label.Name + ".after")
			li.Brk = after
			b.stmt(inner)
			if b.cur != nil {
				edge(b.cur, after)
			}
			b.cur = after
		default:
			b.stmt(s.Stmt)
		}

	case *ast.ReturnStmt:
		b.add(s)
		edge(b.here(), b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		from := b.here()
		switch s.Tok {
		case token.GOTO:
			edge(from, b.label(s.Label.Name).Goto)
		case token.BREAK:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.Brk != nil {
					edge(from, li.Brk)
				}
			} else if n := len(b.breaks); n > 0 {
				edge(from, b.breaks[n-1])
			}
		case token.CONTINUE:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.Cont != nil {
					edge(from, li.Cont)
				}
			} else if n := len(b.continues); n > 0 {
				edge(from, b.continues[n-1])
			}
		case token.FALLTHROUGH:
			if b.nextCase != nil {
				edge(from, b.nextCase)
			}
		}
		b.cur = nil

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.here()
		after := b.newBlock("if.after")
		then := b.newBlock("if.then")
		edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			edge(b.cur, after)
		}
		if s.Else != nil {
			els := b.newBlock("if.else")
			edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				edge(b.cur, after)
			}
		} else {
			edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		b.forStmt(s, nil)

	case *ast.RangeStmt:
		b.rangeStmt(s, nil)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body, b.here(), true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body, b.here(), false)

	case *ast.SelectStmt:
		head := b.here()
		if len(s.Body.List) == 0 {
			// select{} blocks forever: flow ends here and everything
			// after is dead — exactly the semantics.
			b.add(s)
			b.cur = nil
			return
		}
		after := b.newBlock("select.after")
		b.breaks = append(b.breaks, after)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				edge(b.cur, after)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		// When every case returns/branches, after keeps zero
		// predecessors and reads as dead — also exactly the semantics.
		b.cur = after

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			edge(b.here(), b.g.Exit)
			b.cur = nil
		}

	case nil:
		// skip

	default:
		// Assignments, declarations, go/send/incdec statements: straight line.
		b.add(s)
	}
}

// forStmt builds a for loop; li carries the label's break/continue
// targets when the loop is labeled.
func (b *builder) forStmt(s *ast.ForStmt, li *labelInfo) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	edge(b.here(), head)
	after := b.newBlock("for.after")
	// continue re-runs Post (when present) before the head.
	contTarget := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		edge(post, head)
		contTarget = post
	}
	if li != nil {
		li.Brk, li.Cont = after, contTarget
	}
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		edge(head, after)
	}
	body := b.newBlock("for.body")
	edge(head, body)
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, contTarget)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		edge(b.cur, contTarget)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	// `for {}` with no break: after has no predecessors and what follows
	// is dead, matching the spec.
	b.cur = after
}

// rangeStmt builds a range loop. The RangeStmt node itself sits in the
// head block so analyzers can inspect X (and decide, e.g., that ranging
// a never-closed ticker channel is not a real exit).
func (b *builder) rangeStmt(s *ast.RangeStmt, li *labelInfo) {
	head := b.newBlock("range.head")
	edge(b.here(), head)
	head.Nodes = append(head.Nodes, s.X)
	after := b.newBlock("range.after")
	if li != nil {
		li.Brk, li.Cont = after, head
	}
	edge(head, after) // the range may be exhausted (or the channel closed)
	body := b.newBlock("range.body")
	edge(head, body)
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, head)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		edge(b.cur, head)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

// caseClauses builds switch/type-switch clause blocks. withFallthrough
// enables the fallthrough edge (expression switches only).
func (b *builder) caseClauses(body *ast.BlockStmt, head *Block, withFallthrough bool) {
	after := b.newBlock("switch.after")
	b.breaks = append(b.breaks, after)
	clauses := body.List
	// Pre-create case blocks so fallthrough can edge forward.
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock("switch.case")
		edge(head, blocks[i])
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(head, after)
	}
	savedNext := b.nextCase
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if withFallthrough && i+1 < len(clauses) {
			b.nextCase = blocks[i+1]
		} else {
			b.nextCase = nil
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			edge(b.cur, after)
		}
	}
	b.nextCase = savedNext
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// isTerminalCall reports whether the expression is a call that never
// returns: panic, os.Exit, log.Fatal/Fatalf/Fatalln, runtime.Goexit.
// (Deferred recovers are why panic still edges to Exit — the function is
// left either way, which is all intra-procedural flow needs to know.)
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := f.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + f.Sel.Name {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
	}
	return false
}
