// Package oracle is an executable reference semantics for the Snoop+CEP
// event algebra: a deliberately naive interpreter that the differential
// suites compare the production LED against (ISSUE 8, DESIGN.md §12).
//
// Everything here favors obvious correctness over speed, and shares no
// code with the production detector's hot path:
//
//   - No locks, no goroutines — a single-threaded interpreter.
//   - No timers and no ring buffers: every window/aggregate node keeps the
//     FULL child occurrence history forever, and AdvanceTo recomputes each
//     boundary's content by scanning that history against the definition
//     [T-size, T). If the production detector's ring eviction or lazy
//     timer arming is off by one, the two diverge here.
//   - Boundary processing is a global timeline: the earliest unprocessed
//     boundary across every window node fires first, so window occurrences
//     feed parent operators in the same logical order the production
//     detector's timer queue produces.
//
// Supported operators: event references, OR, AND, SEQ, WINDOW, AGG, and
// the Allen relations DURING/OVERLAPS. The classic Snoop context-sensitive
// operators (NOT, A/A*, P/P*, PLUS, temporal) are out of scope — the
// golden operator-stream suite (TestOperatorStreamsGolden) pins their
// output — and building them returns an error.
package oracle

import (
	"fmt"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/snoop"
)

// opKind labels an interpreter node.
type opKind int

const (
	opPrim opKind = iota
	opPass        // named-reference wrapper (mirrors the LED's pass-through)
	opOr
	opAnd
	opSeq
	opWindow
	opAgg
	opDuring
	opOverlaps
)

var allContexts = []led.Context{led.Recent, led.Chronicle, led.Continuous, led.Cumulative}

// Oracle is the reference interpreter. Not safe for concurrent use — the
// differential harness drives it from one goroutine, in lockstep with the
// clock advances it applies to the production detector.
type Oracle struct {
	nodes map[string]*oNode
	// order lists every operator node in build order; the boundary
	// timeline iterates it so equal-instant boundaries fire in a
	// deterministic (definition) order.
	order []*oNode
	now   time.Time
}

type oSub struct {
	ctx led.Context
	fn  func(*led.Occ)
}

type oNode struct {
	o        *Oracle
	name     string // registered name, "" for anonymous operator nodes
	expr     snoop.Expr
	op       opKind
	children []*oNode

	size, slide time.Duration // opWindow, opAgg
	aggFn       string
	aggCmp      string
	aggThr      float64

	subs      []oSub
	activated map[led.Context]bool
	st        map[led.Context]*oState
}

// oState is one context's interpreter state.
type oState struct {
	left  []*led.Occ
	right []*led.Occ
	// hist is the full, never-evicted child history of a window node.
	hist []*led.Occ
	// next is the first unprocessed boundary; zero until the first child
	// occurrence starts the grid. Unlike the production detector it never
	// disarms — empty boundaries are recomputed (to nothing) forever.
	next time.Time
}

// New returns an empty oracle starting at the zero time.
func New() *Oracle {
	return &Oracle{nodes: make(map[string]*oNode)}
}

// DefinePrimitive registers a primitive event name.
func (o *Oracle) DefinePrimitive(name string) error {
	if _, ok := o.nodes[name]; ok {
		return fmt.Errorf("oracle: event %q already defined", name)
	}
	o.nodes[name] = &oNode{o: o, name: name, op: opPrim}
	return nil
}

// DefineComposite registers a named composite over a Snoop expression.
func (o *Oracle) DefineComposite(name string, expr snoop.Expr) error {
	if _, ok := o.nodes[name]; ok {
		return fmt.Errorf("oracle: event %q already defined", name)
	}
	for _, ref := range snoop.EventNames(expr) {
		if _, ok := o.nodes[ref]; !ok {
			return fmt.Errorf("oracle: event %q is not defined", ref)
		}
	}
	n, err := o.build(expr)
	if err != nil {
		return err
	}
	n.name = name
	o.nodes[name] = n
	return nil
}

func (o *Oracle) build(e snoop.Expr) (*oNode, error) {
	mk := func(op opKind, children ...*oNode) *oNode {
		n := &oNode{o: o, op: op, expr: e, children: children}
		o.order = append(o.order, n)
		return n
	}
	switch x := e.(type) {
	case *snoop.EventRef:
		c, ok := o.nodes[x.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: event %q is not defined", x.Name)
		}
		return mk(opPass, c), nil
	case *snoop.Or:
		return o.buildBinary(opOr, e, x.L, x.R)
	case *snoop.And:
		return o.buildBinary(opAnd, e, x.L, x.R)
	case *snoop.Seq:
		return o.buildBinary(opSeq, e, x.L, x.R)
	case *snoop.Window:
		c, err := o.build(x.E)
		if err != nil {
			return nil, err
		}
		n := mk(opWindow, c)
		n.size, n.slide = x.Size, x.Slide
		return n, nil
	case *snoop.Agg:
		c, err := o.build(x.E)
		if err != nil {
			return nil, err
		}
		n := mk(opAgg, c)
		n.size, n.slide = x.Size, x.Slide
		n.aggFn, n.aggCmp, n.aggThr = x.Fn, x.Cmp, x.Threshold
		return n, nil
	case *snoop.Interval:
		op := opDuring
		if x.Rel == "OVERLAPS" {
			op = opOverlaps
		} else if x.Rel != "DURING" {
			return nil, fmt.Errorf("oracle: unknown interval relation %q", x.Rel)
		}
		return o.buildBinary(op, e, x.L, x.R)
	default:
		return nil, fmt.Errorf("oracle: unsupported expression %T", e)
	}
}

func (o *Oracle) buildBinary(op opKind, e snoop.Expr, l, r snoop.Expr) (*oNode, error) {
	ln, err := o.build(l)
	if err != nil {
		return nil, err
	}
	rn, err := o.build(r)
	if err != nil {
		return nil, err
	}
	n := &oNode{o: o, op: op, expr: e, children: []*oNode{ln, rn}}
	o.order = append(o.order, n)
	return n, nil
}

// Watch activates event's detection tree in ctx and subscribes fn to its
// occurrences (the oracle's analogue of an IMMEDIATE rule).
func (o *Oracle) Watch(event string, ctx led.Context, fn func(*led.Occ)) error {
	n, ok := o.nodes[event]
	if !ok {
		return fmt.Errorf("oracle: event %q is not defined", event)
	}
	n.activate(ctx)
	n.subs = append(n.subs, oSub{ctx: ctx, fn: fn})
	return nil
}

// Signal feeds one primitive occurrence, first processing every window
// boundary up to its instant (the production detector's clock has already
// fired those timers when a same-instant signal arrives).
func (o *Oracle) Signal(p led.Primitive) {
	o.AdvanceTo(p.At)
	n, ok := o.nodes[p.Event]
	if !ok || n.op != opPrim {
		return
	}
	for _, s := range n.subs {
		s.fn(&led.Occ{
			Event:        p.Event,
			Context:      s.ctx,
			At:           p.At,
			Constituents: []led.Primitive{p},
		})
	}
}

// AdvanceTo processes every window boundary with deadline ≤ t, earliest
// first across all window nodes.
func (o *Oracle) AdvanceTo(t time.Time) {
	for {
		var (
			bn  *oNode
			bcx led.Context
			bst *oState
		)
		for _, n := range o.order {
			if n.op != opWindow && n.op != opAgg {
				continue
			}
			for _, ctx := range allContexts {
				st := n.st[ctx]
				if st == nil || st.next.IsZero() || st.next.After(t) {
					continue
				}
				if bst == nil || st.next.Before(bst.next) {
					bn, bcx, bst = n, ctx, st
				}
			}
		}
		if bst == nil {
			break
		}
		bn.boundary(bcx, bst)
	}
	if t.After(o.now) {
		o.now = t
	}
}

// Now reports the oracle's logical time.
func (o *Oracle) Now() time.Time { return o.now }

func (n *oNode) eventName() string {
	if n.name != "" {
		return n.name
	}
	if n.expr != nil {
		return n.expr.String()
	}
	return "<anonymous>"
}

func (n *oNode) activate(ctx led.Context) {
	if n.activated == nil {
		n.activated = make(map[led.Context]bool)
	}
	if n.activated[ctx] {
		return
	}
	n.activated[ctx] = true
	if n.st == nil {
		n.st = make(map[led.Context]*oState)
	}
	n.st[ctx] = &oState{}
	if n.op == opPrim {
		return
	}
	for i, c := range n.children {
		c.activate(ctx)
		idx := i
		c.subs = append(c.subs, oSub{ctx: ctx, fn: func(occ *led.Occ) { n.onChild(ctx, idx, occ) }})
	}
}

func (n *oNode) emit(ctx led.Context, occ *led.Occ) {
	for _, s := range n.subs {
		if s.ctx == ctx {
			c := *occ
			c.Constituents = append([]led.Primitive(nil), occ.Constituents...)
			s.fn(&c)
		}
	}
}

func (n *oNode) onChild(ctx led.Context, idx int, occ *led.Occ) {
	st := n.st[ctx]
	switch n.op {
	case opPass, opOr:
		n.emit(ctx, merge(n.eventName(), ctx, occ))
	case opAnd:
		n.onAnd(ctx, st, idx, occ)
	case opSeq:
		n.onTerminated(ctx, st, idx, occ, func(l *led.Occ) bool {
			return l.At.Before(occ.At)
		})
	case opWindow, opAgg:
		st.hist = append(st.hist, occ)
		if st.next.IsZero() {
			st.next = boundaryAfter(occ.At, n.slide)
		}
	case opDuring:
		n.onTerminated(ctx, st, idx, occ, func(l *led.Occ) bool {
			ls, le := extent(l)
			rs, re := extent(occ)
			return ls.After(rs) && le.Before(re)
		})
	case opOverlaps:
		n.onTerminated(ctx, st, idx, occ, func(l *led.Occ) bool {
			ls, le := extent(l)
			rs, re := extent(occ)
			return ls.Before(rs) && rs.Before(le) && le.Before(re)
		})
	}
}

// onAnd is the textbook AND: both constituents in either order, buffered
// per side, paired per context policy.
func (n *oNode) onAnd(ctx led.Context, st *oState, idx int, occ *led.Occ) {
	mine, other := &st.left, &st.right
	if idx == 1 {
		mine, other = &st.right, &st.left
	}
	switch ctx {
	case led.Recent:
		*mine = []*led.Occ{occ}
		if len(*other) > 0 {
			n.emit(ctx, merge(n.eventName(), ctx, (*other)[len(*other)-1], occ))
		}
	case led.Chronicle:
		*mine = append(*mine, occ)
		for len(st.left) > 0 && len(st.right) > 0 {
			l, r := st.left[0], st.right[0]
			st.left = st.left[1:]
			st.right = st.right[1:]
			n.emit(ctx, merge(n.eventName(), ctx, l, r))
		}
	case led.Continuous:
		if len(*other) > 0 {
			for _, o := range *other {
				n.emit(ctx, merge(n.eventName(), ctx, o, occ))
			}
			*other = nil
			return
		}
		*mine = append(*mine, occ)
	case led.Cumulative:
		*mine = append(*mine, occ)
		if len(st.left) > 0 && len(st.right) > 0 {
			parts := make([]*led.Occ, 0, len(st.left)+len(st.right))
			parts = append(parts, st.left...)
			parts = append(parts, st.right...)
			st.left, st.right = nil, nil
			n.emit(ctx, merge(n.eventName(), ctx, parts...))
		}
	}
}

// onTerminated is the shared left-buffer/right-terminator shape of SEQ and
// the Allen relations: the left operand buffers, the right terminates, and
// holds decides eligibility.
func (n *oNode) onTerminated(ctx led.Context, st *oState, idx int, occ *led.Occ, holds func(*led.Occ) bool) {
	if idx == 0 {
		switch ctx {
		case led.Recent:
			st.left = []*led.Occ{occ}
		default:
			st.left = append(st.left, occ)
		}
		return
	}
	var eligible []*led.Occ
	for _, l := range st.left {
		if holds(l) {
			eligible = append(eligible, l)
		}
	}
	if len(eligible) == 0 {
		return
	}
	remove := func(target *led.Occ) {
		for i, l := range st.left {
			if l == target {
				st.left = append(st.left[:i], st.left[i+1:]...)
				return
			}
		}
	}
	switch ctx {
	case led.Recent:
		n.emit(ctx, merge(n.eventName(), ctx, eligible[len(eligible)-1], occ))
	case led.Chronicle:
		oldest := eligible[0]
		n.emit(ctx, merge(n.eventName(), ctx, oldest, occ))
		remove(oldest)
	case led.Continuous:
		for _, l := range eligible {
			n.emit(ctx, merge(n.eventName(), ctx, l, occ))
			remove(l)
		}
	case led.Cumulative:
		parts := make([]*led.Occ, 0, len(eligible)+1)
		parts = append(parts, eligible...)
		parts = append(parts, occ)
		for _, l := range eligible {
			remove(l)
		}
		n.emit(ctx, merge(n.eventName(), ctx, parts...))
	}
}

// boundary recomputes one window boundary from the full history.
func (n *oNode) boundary(ctx led.Context, st *oState) {
	at := st.next
	st.next = at.Add(n.slide)
	lo := at.Add(-n.size)
	var content []*led.Occ
	for _, c := range st.hist {
		if !c.At.Before(lo) && c.At.Before(at) {
			content = append(content, c)
		}
	}
	if len(content) == 0 {
		return
	}
	if n.op == opAgg {
		v := aggValue(n.aggFn, content)
		if n.aggCmp != "" && !cmpHolds(n.aggCmp, v, n.aggThr) {
			return
		}
	}
	tick := &led.Occ{
		Event: n.eventName(),
		At:    at,
		Constituents: []led.Primitive{{
			Event: n.eventName(), Op: "tick", At: at,
		}},
	}
	parts := make([]*led.Occ, 0, len(content)+1)
	parts = append(parts, content...)
	parts = append(parts, tick)
	n.emit(ctx, merge(n.eventName(), ctx, parts...))
}

// merge mirrors the production mergeOccs contract: the composite's At is
// the latest constituent time, constituents stably sorted by At.
func merge(event string, ctx led.Context, parts ...*led.Occ) *led.Occ {
	out := &led.Occ{Event: event, Context: ctx}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.At.After(out.At) {
			out.At = p.At
		}
		out.Constituents = append(out.Constituents, p.Constituents...)
	}
	cs := out.Constituents
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].At.Before(cs[j-1].At); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	return out
}

// extent is an occurrence's durative interval: earliest constituent to
// detection instant.
func extent(o *led.Occ) (start, end time.Time) {
	if len(o.Constituents) > 0 {
		return o.Constituents[0].At, o.At
	}
	return o.At, o.At
}

// boundaryAfter returns the first slide-grid boundary strictly after t.
func boundaryAfter(t time.Time, slide time.Duration) time.Time {
	s := slide.Nanoseconds()
	ns := t.UnixNano()
	q := ns / s
	if ns%s != 0 && ns < 0 {
		q--
	}
	return time.Unix(0, (q+1)*s).UTC()
}

// aggValue evaluates an aggregate over the vno parameter of the content's
// constituents.
func aggValue(fn string, content []*led.Occ) float64 {
	var (
		count int
		sum   float64
		min   float64
		max   float64
		first = true
	)
	for _, o := range content {
		for _, p := range o.Constituents {
			v := float64(p.VNo)
			count++
			sum += v
			if first || v < min {
				min = v
			}
			if first || v > max {
				max = v
			}
			first = false
		}
	}
	switch fn {
	case "COUNT":
		return float64(count)
	case "SUM":
		return sum
	case "AVG":
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	case "MIN":
		return min
	case "MAX":
		return max
	}
	return 0
}

func cmpHolds(cmp string, v, thr float64) bool {
	switch cmp {
	case ">":
		return v > thr
	case ">=":
		return v >= thr
	case "<":
		return v < thr
	case "<=":
		return v <= thr
	case "==":
		return v == thr
	case "!=":
		return v != thr
	}
	return false
}
