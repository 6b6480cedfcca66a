package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as a file, finds the function named fn, and returns
// its graph plus the fileset for positions.
func build(t *testing.T, src, fn string) (*Graph, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_src.go", "package p\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return FuncGraph(fd), fset
		}
	}
	t.Fatalf("no function %q", fn)
	return nil, nil
}

// blockWith returns the first block containing a node whose source text
// (for idents and basic literals) equals want.
func blockWith(t *testing.T, g *Graph, want string) *Block {
	t.Helper()
	var found *Block
	g.Visit(func(b *Block, _ int, n ast.Node) {
		if found != nil {
			return
		}
		switch x := n.(type) {
		case *ast.Ident:
			if x.Name == want {
				found = b
			}
		case *ast.BasicLit:
			if x.Value == want {
				found = b
			}
		}
	})
	if found == nil {
		t.Fatalf("no block contains %q", want)
	}
	return found
}

func reaches(g *Graph, from, to *Block) bool {
	if from == to {
		return true
	}
	return g.ReachableFrom(from)[to]
}

func TestStraightLine(t *testing.T) {
	g, _ := build(t, `func f() { a(); b() }`, "f")
	if !g.Live()[g.Exit] {
		t.Fatal("exit unreachable in straight-line function")
	}
	if len(g.Defers) != 0 {
		t.Fatalf("got %d defers, want 0", len(g.Defers))
	}
}

func TestIfElseJoin(t *testing.T) {
	g, _ := build(t, `func f(c bool) { if c { a() } else { b() }; j() }`, "f")
	ba, bb, bj := blockWith(t, g, "a"), blockWith(t, g, "b"), blockWith(t, g, "j")
	if reaches(g, ba, bb) || reaches(g, bb, ba) {
		t.Error("then and else branches must not reach each other")
	}
	if !reaches(g, ba, bj) || !reaches(g, bb, bj) {
		t.Error("both branches must reach the join")
	}
}

// Labeled break must leave the *outer* loop; labeled continue must
// re-enter the outer loop head without running the rest of its body.
func TestLabeledBreakContinue(t *testing.T) {
	g, _ := build(t, `func f() {
outer:
	for {
		for {
			if a() {
				break outer
			}
			if b() {
				continue outer
			}
			inner()
		}
		tail()
	}
	done()
}`, "f")
	bDone, bTail, bInner := blockWith(t, g, "done"), blockWith(t, g, "tail"), blockWith(t, g, "inner")
	bBreak := blockWith(t, g, "a")
	if !g.Live()[bDone] {
		t.Error("break outer must make the post-loop block live")
	}
	// The break-taken path must not fall into the inner loop's remainder.
	if !reaches(g, bBreak, bDone) {
		t.Error("break outer does not reach the function tail")
	}
	// continue outer skips tail(): tail is only reachable when the inner
	// loop exits normally — which it never does (for{} with only
	// break-outer/continue-outer exits), so tail is dead.
	if g.Live()[bTail] {
		t.Error("tail() after an inescapable inner for{} must be dead")
	}
	if !g.Live()[bInner] {
		t.Error("inner loop body must be live")
	}
}

// A goto that jumps into a loop body creates a real entry edge: the loop
// body must be reachable from before the loop without passing its head.
func TestGotoIntoLoop(t *testing.T) {
	g, _ := build(t, `func f(c bool) {
	if c {
		goto inside
	}
	for i := 0; i < 10; i++ {
	inside:
		body()
	}
	after()
}`, "f")
	bGoto := blockWith(t, g, "c")
	bBody := blockWith(t, g, "body")
	bAfter := blockWith(t, g, "after")
	if !reaches(g, bGoto, bBody) {
		t.Error("goto inside must reach the loop body")
	}
	if !reaches(g, bBody, bBody) {
		t.Error("loop body must sit on a cycle (back edge through the head)")
	}
	if !reaches(g, bBody, bAfter) {
		t.Error("loop must still exit to after()")
	}
}

// A backward goto forms a loop: the jumped-to block sits on a cycle.
func TestBackwardGoto(t *testing.T) {
	g, _ := build(t, `func f() {
again:
	work()
	if cond() {
		goto again
	}
	done()
}`, "f")
	bWork := blockWith(t, g, "work")
	if !reaches(g, bWork, bWork) {
		t.Error("backward goto must put the target block on a cycle")
	}
	if !g.Live()[blockWith(t, g, "done")] {
		t.Error("fallthrough exit must stay live")
	}
}

// panic ends the block with an edge to Exit (a deferred recover may turn
// the unwind into a normal return — either way the function is left),
// and statements after it are dead.
func TestDeferRecoverPanic(t *testing.T) {
	g, _ := build(t, `func f() {
	defer func() {
		if r := recover(); r != nil {
			handled()
		}
	}()
	work()
	panic("boom")
	dead()
}`, "f")
	if len(g.Defers) != 1 {
		t.Fatalf("got %d defers, want 1", len(g.Defers))
	}
	if !g.Live()[g.Exit] {
		t.Error("panic must edge to Exit (defer-with-recover leaves the function either way)")
	}
	if g.Live()[blockWith(t, g, "dead")] {
		t.Error("statement after panic must be dead")
	}
	bPanic := blockWith(t, g, `"boom"`)
	hasExit := false
	for _, s := range bPanic.Succs {
		if s == g.Exit {
			hasExit = true
		}
	}
	if !hasExit {
		t.Error("panic block must edge directly to Exit")
	}
	// The deferred literal's body is not part of this graph: handled()
	// must not appear in any block (Visit skips FuncLit bodies).
	g.Visit(func(_ *Block, _ int, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && id.Name == "handled" {
			t.Error("deferred literal body leaked into the enclosing graph")
		}
	})
}

// A select with no default still branches to every case; with no cases
// at all it blocks forever and everything after is dead.
func TestSelectNoDefault(t *testing.T) {
	g, _ := build(t, `func f(a, b chan int) {
	select {
	case <-a:
		ra()
	case <-b:
		rb()
	}
	after()
}`, "f")
	bra, brb, bAfter := blockWith(t, g, "ra"), blockWith(t, g, "rb"), blockWith(t, g, "after")
	if !g.Live()[bra] || !g.Live()[brb] {
		t.Error("both select cases must be live")
	}
	if reaches(g, bra, brb) || reaches(g, brb, bra) {
		t.Error("select cases must not reach each other")
	}
	if !reaches(g, bra, bAfter) || !reaches(g, brb, bAfter) {
		t.Error("both cases must rejoin after the select")
	}

	g2, _ := build(t, `func g() { before(); select {}; never() }`, "g")
	if g2.Live()[g2.Exit] {
		t.Error("select{} blocks forever: Exit must be unreachable")
	}
	if g2.Live()[blockWith(t, g2, "never")] {
		t.Error("code after select{} must be dead")
	}
}

// Return and the never-returning terminators kill the flow; labels can
// resurrect it.
func TestDeadAfterReturnAndTerminators(t *testing.T) {
	g, _ := build(t, `func f(c bool) {
	if c {
		return
	}
	live()
	os.Exit(1)
	dead1()
}`, "f")
	if !g.Live()[blockWith(t, g, "live")] {
		t.Error("else path must be live")
	}
	if g.Live()[blockWith(t, g, "dead1")] {
		t.Error("code after os.Exit must be dead")
	}

	// A live goto resurrects code sitting after a return; a label only
	// referenced from dead code stays dead.
	g2, _ := build(t, `func g(c bool) {
	if c {
		goto resurrect
	}
	return
resurrect:
	lives()
}`, "g")
	if !g2.Live()[blockWith(t, g2, "lives")] {
		t.Error("a live goto must resurrect the labeled block after a return")
	}

	g3, _ := build(t, `func h() {
	return
unreferenced:
	stays()
	goto unreferenced
}`, "h")
	if g3.Live()[blockWith(t, g3, "stays")] {
		t.Error("a label reachable only from dead code must stay dead")
	}
}

// Switch: no default leaves a fall-past edge; fallthrough chains case
// bodies; with a default the head cannot skip every case.
func TestSwitchFallthroughAndDefault(t *testing.T) {
	g, _ := build(t, `func f(x int) {
	switch x {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	}
	after()
}`, "f")
	b1, b2 := blockWith(t, g, "one"), blockWith(t, g, "two")
	if !reaches(g, b1, b2) {
		t.Error("fallthrough must edge into the next case body")
	}
	if !g.Live()[blockWith(t, g, "after")] {
		t.Error("switch without default must be skippable")
	}

	g2, _ := build(t, `func g(x int) {
	switch {
	case x > 0:
		pos()
		return
	default:
		neg()
		return
	}
}`, "g")
	// Every case returns and a default exists: the switch.after block is
	// dead but Exit is still reached through the returns.
	if !g2.Live()[g2.Exit] {
		t.Error("returns inside switch must reach Exit")
	}
}

// Range loops: body cycles through the head, the loop exits to after,
// and the ranged expression sits in the head block for inspection.
func TestRangeLoop(t *testing.T) {
	g, _ := build(t, `func f(xs []int) {
	for range xs {
		body()
	}
	after()
}`, "f")
	bBody, bAfter := blockWith(t, g, "body"), blockWith(t, g, "after")
	if !reaches(g, bBody, bBody) {
		t.Error("range body must sit on a cycle")
	}
	if !reaches(g, bBody, bAfter) {
		t.Error("range must exit to after()")
	}
	bX := blockWith(t, g, "xs")
	if !strings.HasPrefix(bX.Kind, "range.head") {
		t.Errorf("ranged expression lives in %q, want the range head", bX.Kind)
	}
}

// `for {}` without break: everything after is dead, but the body is live
// and cyclic.
func TestForeverLoop(t *testing.T) {
	g, _ := build(t, `func f() {
	for {
		spin()
	}
	dead()
}`, "f")
	bSpin := blockWith(t, g, "spin")
	if !g.Live()[bSpin] || !reaches(g, bSpin, bSpin) {
		t.Error("forever-loop body must be live and cyclic")
	}
	if g.Live()[blockWith(t, g, "dead")] {
		t.Error("code after for{} must be dead")
	}
	if g.Live()[g.Exit] {
		t.Error("for{} without break cannot reach Exit")
	}
}
