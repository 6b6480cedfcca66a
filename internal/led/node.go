package led

import (
	"fmt"
	"time"

	"github.com/activedb/ecaagent/internal/snoop"
)

// kind enumerates node kinds in the event graph.
type kind int

const (
	kPrimitive kind = iota
	kOr
	kAnd
	kSeq
	kNot
	kAper     // A
	kAperStar // A*
	kPer      // P
	kPerStar  // P*
	kPlus
	kTemporal
	kWindow   // WINDOW(E, [size], SLIDE [slide])
	kAgg      // AGG(FN, param, E, [size], SLIDE [slide]) cmp thr
	kDuring   // L DURING R
	kOverlaps // L OVERLAPS R
)

// sub is one subscription to a node's occurrences in one context. rule is
// set for rule subscriptions so DropRule can remove them.
type sub struct {
	ctx  Context
	fn   func(*Occ)
	rule *Rule
}

// node is one vertex of the event graph. All node methods run with the
// LED's mu held.
type node struct {
	led      *LED   // immutable: clock, metrics, timer dispatch entry
	name     string // registered name; "" for anonymous operator nodes
	kind     kind
	children []*node
	expr     snoop.Expr // the operator expression, for names and the DOT view

	dur   time.Duration // kPer, kPerStar, kPlus; window size for kWindow/kAgg
	absAt time.Time     // kTemporal

	slide    time.Duration // kWindow, kAgg: boundary-grid pitch
	aggFn    string        // kAgg: COUNT, SUM, AVG, MIN, MAX
	aggParam string        // kAgg: aggregated parameter (vno)
	aggCmp   string        // kAgg: "" or a comparator
	aggThr   float64       // kAgg: comparison threshold

	subs      []sub
	activated map[Context]bool
	state     map[Context]*opState
}

// opState is the per-context detection state of an operator node. Every
// field is serializable (snapshot.go): nothing the detector needs to
// survive a restart lives only in timer closures.
type opState struct {
	left  []*Occ // buffered left/initiator occurrences
	right []*Occ // buffered right occurrences (AND only)
	// windows holds open A/A*/P/P* windows.
	windows []*window
	// plus holds scheduled PLUS re-emissions not yet fired.
	plus []*plusPending
	// done marks a temporal event that has fired (one-shot).
	done bool

	// ring buffers child occurrences still eligible for a future window
	// boundary (kWindow/kAgg), in arrival order; nextBound is the armed
	// boundary deadline (zero while the ring is empty — the arming
	// invariant is ring non-empty ⟺ boundary timer armed). ringStop
	// cancels the armed boundary timer.
	ring      []*Occ
	nextBound time.Time
	ringStop  func()
}

// window is one open interval for the aperiodic/periodic operators.
type window struct {
	start *Occ
	mids  []*Occ // accumulated middle occurrences (A*) or ticks (P*)
	// next is the next tick's logical deadline (periodic operators only);
	// derived from the start occurrence, not the wall clock, so a restored
	// window re-ticks at the same instants the crashed process would have.
	next time.Time
	// cancel stops the window's periodic timer.
	cancel func()
}

// plusPending is one scheduled PLUS emission: the child occurrence and the
// logical instant (occ.At + delta) it re-emits at.
type plusPending struct {
	occ *Occ
	at  time.Time
}

// buildLocked constructs the (anonymous) graph for an expression. It
// registers nothing, so a failed build leaves the detector unchanged.
// Caller holds mu.
func (l *LED) buildLocked(expr snoop.Expr) (*node, error) {
	switch e := expr.(type) {
	case *snoop.EventRef:
		n, ok := l.nodes[e.Name]
		if !ok {
			return nil, fmt.Errorf("led: event %q is not defined", e.Name)
		}
		// Wrap named nodes in a pass-through so the composite root can be
		// renamed without renaming the shared constituent.
		root := &node{led: l, kind: kOr, children: []*node{n}, expr: expr}
		return root, nil
	case *snoop.Or:
		return l.buildBinary(kOr, e.L, e.R, expr)
	case *snoop.And:
		return l.buildBinary(kAnd, e.L, e.R, expr)
	case *snoop.Seq:
		return l.buildBinary(kSeq, e.L, e.R, expr)
	case *snoop.Not:
		return l.buildNary(kNot, []snoop.Expr{e.Start, e.Middle, e.End}, expr, 0, time.Time{})
	case *snoop.Aperiodic:
		k := kAper
		if e.Star {
			k = kAperStar
		}
		return l.buildNary(k, []snoop.Expr{e.Start, e.Mid, e.End}, expr, 0, time.Time{})
	case *snoop.Periodic:
		k := kPer
		if e.Star {
			k = kPerStar
		}
		if e.Period <= 0 {
			return nil, fmt.Errorf("led: periodic event needs a positive period")
		}
		return l.buildNary(k, []snoop.Expr{e.Start, e.End}, expr, e.Period, time.Time{})
	case *snoop.Plus:
		if e.Delta < 0 {
			return nil, fmt.Errorf("led: PLUS needs a non-negative delay")
		}
		return l.buildNary(kPlus, []snoop.Expr{e.E}, expr, e.Delta, time.Time{})
	case *snoop.Temporal:
		return &node{led: l, kind: kTemporal, absAt: e.At, expr: expr}, nil
	case *snoop.Window:
		if err := validateWindow(e.Size, e.Slide); err != nil {
			return nil, err
		}
		n, err := l.buildNary(kWindow, []snoop.Expr{e.E}, expr, e.Size, time.Time{})
		if err != nil {
			return nil, err
		}
		n.slide = e.Slide
		return n, nil
	case *snoop.Agg:
		if err := validateAgg(e); err != nil {
			return nil, err
		}
		n, err := l.buildNary(kAgg, []snoop.Expr{e.E}, expr, e.Size, time.Time{})
		if err != nil {
			return nil, err
		}
		n.slide = e.Slide
		n.aggFn = e.Fn
		n.aggParam = e.Param
		n.aggCmp = e.Cmp
		n.aggThr = e.Threshold
		return n, nil
	case *snoop.Interval:
		k, err := intervalKind(e.Rel)
		if err != nil {
			return nil, err
		}
		return l.buildBinary(k, e.L, e.R, expr)
	default:
		return nil, fmt.Errorf("led: unsupported expression %T", expr)
	}
}

func (l *LED) buildBinary(k kind, le, re snoop.Expr, expr snoop.Expr) (*node, error) {
	ln, err := l.buildLocked(le)
	if err != nil {
		return nil, err
	}
	rn, err := l.buildLocked(re)
	if err != nil {
		return nil, err
	}
	return &node{led: l, kind: k, children: []*node{ln, rn}, expr: expr}, nil
}

func (l *LED) buildNary(k kind, exprs []snoop.Expr, expr snoop.Expr, d time.Duration, at time.Time) (*node, error) {
	children := make([]*node, len(exprs))
	for i, e := range exprs {
		c, err := l.buildLocked(e)
		if err != nil {
			return nil, err
		}
		children[i] = c
	}
	return &node{led: l, kind: k, children: children, expr: expr, dur: d, absAt: at}, nil
}

// eventName is the name occurrences of this node carry.
func (n *node) eventName() string {
	if n.name != "" {
		return n.name
	}
	if n.expr != nil {
		return n.expr.String()
	}
	return "<anonymous>"
}

// subscribe attaches a parent operator's context-tagged listener.
func (n *node) subscribe(ctx Context, fn func(*Occ)) {
	n.subs = append(n.subs, sub{ctx: ctx, fn: fn})
}

// subscribeRule attaches a rule's listener; unsubscribeRule removes it.
func (n *node) subscribeRule(r *Rule, fn func(*Occ)) {
	n.subs = append(n.subs, sub{ctx: r.Context, fn: fn, rule: r})
}

func (n *node) unsubscribeRule(r *Rule) {
	kept := n.subs[:0]
	for _, s := range n.subs {
		if s.rule != r {
			kept = append(kept, s)
		}
	}
	n.subs = kept
}

// activate enables detection of this node's subtree in the given context.
// Idempotent.
func (n *node) activate(ctx Context) {
	if n.activated == nil {
		n.activated = make(map[Context]bool)
	}
	if n.activated[ctx] {
		return
	}
	n.activated[ctx] = true
	if n.state == nil {
		n.state = make(map[Context]*opState)
	}
	n.state[ctx] = &opState{}
	switch n.kind {
	case kPrimitive:
		// Primitives are context-free sources.
	case kTemporal:
		n.scheduleTemporal(ctx)
	default:
		for i, c := range n.children {
			c.activate(ctx)
			idx := i
			c.subscribe(ctx, func(occ *Occ) { n.onChild(ctx, idx, occ) })
		}
	}
}

// emit delivers an occurrence to this node's subscribers in one context.
func (n *node) emit(ctx Context, occ *Occ) {
	n.led.countOcc(n.kind)
	occ.Event = n.eventName()
	occ.Context = ctx
	for _, s := range n.subs {
		if s.ctx == ctx {
			s.fn(occ.clone())
		}
	}
}

// emitPrimitive delivers a primitive occurrence to subscribers of every
// context (primitive detection is context-free). Each subscriber gets its
// own context-tagged occurrence built in a single allocation (newPrimOcc)
// — the same isolation the previous per-subscriber clone provided, minus
// the intermediate occurrence and one slice allocation per delivery.
func (n *node) emitPrimitive(p Primitive) {
	n.led.countOcc(kPrimitive)
	for _, s := range n.subs {
		s.fn(newPrimOcc(p, s.ctx))
	}
}

// onChild processes a constituent occurrence under a context. This is
// where the paper's parameter-context semantics live; the per-context
// buffer policies follow [CHA94]'s initiator/terminator definitions.
func (n *node) onChild(ctx Context, idx int, occ *Occ) {
	st := n.state[ctx]
	switch n.kind {
	case kOr:
		// Any constituent occurrence signals the disjunction.
		n.emit(ctx, mergeOccs(n.eventName(), ctx, occ))

	case kAnd:
		n.onAnd(ctx, st, idx, occ)

	case kSeq:
		n.onSeq(ctx, st, idx, occ)

	case kNot:
		n.onNot(ctx, st, idx, occ)

	case kAper, kAperStar:
		n.onAperiodic(ctx, st, idx, occ)

	case kPer, kPerStar:
		n.onPeriodic(ctx, st, idx, occ)

	case kPlus:
		n.onPlus(ctx, st, occ)

	case kWindow, kAgg:
		n.onWindowChild(ctx, st, occ)

	case kDuring, kOverlaps:
		n.onInterval(ctx, st, idx, occ)
	}
}

// onAnd implements E1 ^ E2: both constituents, either order.
func (n *node) onAnd(ctx Context, st *opState, idx int, occ *Occ) {
	mine, other := &st.left, &st.right
	if idx == 1 {
		mine, other = &st.right, &st.left
	}
	switch ctx {
	case Recent:
		// Latest occurrence of each side; any completion emits. Slots are
		// not consumed — a newer instance replaces them.
		*mine = []*Occ{occ}
		if len(*other) > 0 {
			n.emit(ctx, mergeOccs(n.eventName(), ctx, (*other)[len(*other)-1], occ))
		}
	case Chronicle:
		// FIFO pairing; both sides consumed.
		*mine = append(*mine, occ)
		for len(st.left) > 0 && len(st.right) > 0 {
			l, r := st.left[0], st.right[0]
			st.left = st.left[1:]
			st.right = st.right[1:]
			n.emit(ctx, mergeOccs(n.eventName(), ctx, l, r))
		}
	case Continuous:
		// Every buffered opposite occurrence is a window the arrival
		// terminates; all are consumed, the terminator is used by all.
		if len(*other) > 0 {
			for _, o := range *other {
				n.emit(ctx, mergeOccs(n.eventName(), ctx, o, occ))
			}
			*other = nil
			return
		}
		*mine = append(*mine, occ)
	case Cumulative:
		// Accumulate everything; completion flushes both sides into one
		// occurrence.
		*mine = append(*mine, occ)
		if len(st.left) > 0 && len(st.right) > 0 {
			parts := append(append([]*Occ{}, st.left...), st.right...)
			st.left, st.right = nil, nil
			n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
		}
	}
}

// onSeq implements E1 ; E2: initiator strictly before terminator.
func (n *node) onSeq(ctx Context, st *opState, idx int, occ *Occ) {
	if idx == 0 { // initiator
		switch ctx {
		case Recent:
			st.left = []*Occ{occ}
		default:
			st.left = append(st.left, occ)
		}
		return
	}
	// Terminator: must strictly follow the initiator.
	eligible := st.left[:0:0]
	for _, l := range st.left {
		if l.At.Before(occ.At) {
			eligible = append(eligible, l)
		}
	}
	if len(eligible) == 0 {
		return
	}
	switch ctx {
	case Recent:
		n.emit(ctx, mergeOccs(n.eventName(), ctx, eligible[len(eligible)-1], occ))
	case Chronicle:
		oldest := eligible[0]
		n.emit(ctx, mergeOccs(n.eventName(), ctx, oldest, occ))
		n.removeLeft(st, oldest)
	case Continuous:
		for _, l := range eligible {
			n.emit(ctx, mergeOccs(n.eventName(), ctx, l, occ))
			n.removeLeft(st, l)
		}
	case Cumulative:
		parts := append(append([]*Occ{}, eligible...), occ)
		for _, l := range eligible {
			n.removeLeft(st, l)
		}
		n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
	}
}

func (n *node) removeLeft(st *opState, target *Occ) {
	for i, l := range st.left {
		if l == target {
			st.left = append(st.left[:i], st.left[i+1:]...)
			return
		}
	}
}

// onNot implements NOT(S, M, E): E with no M since the initiating S.
func (n *node) onNot(ctx Context, st *opState, idx int, occ *Occ) {
	switch idx {
	case 0: // initiator S
		switch ctx {
		case Recent:
			st.left = []*Occ{occ}
		default:
			st.left = append(st.left, occ)
		}
	case 1: // middle M invalidates every open window
		st.left = nil
	case 2: // terminator E
		if len(st.left) == 0 {
			return
		}
		switch ctx {
		case Recent:
			n.emit(ctx, mergeOccs(n.eventName(), ctx, st.left[len(st.left)-1], occ))
		case Chronicle:
			oldest := st.left[0]
			st.left = st.left[1:]
			n.emit(ctx, mergeOccs(n.eventName(), ctx, oldest, occ))
		case Continuous:
			for _, l := range st.left {
				n.emit(ctx, mergeOccs(n.eventName(), ctx, l, occ))
			}
			st.left = nil
		case Cumulative:
			parts := append(append([]*Occ{}, st.left...), occ)
			st.left = nil
			n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
		}
	}
}

// onAperiodic implements A(S, M, E) and the cumulative A*(S, M, E).
func (n *node) onAperiodic(ctx Context, st *opState, idx int, occ *Occ) {
	star := n.kind == kAperStar
	switch idx {
	case 0: // window opens
		w := &window{start: occ}
		if ctx == Recent {
			st.windows = []*window{w}
		} else {
			st.windows = append(st.windows, w)
		}
	case 1: // middle occurrence
		if len(st.windows) == 0 {
			return
		}
		if star {
			// Accumulate in every open window; A* signals at E.
			for _, w := range st.windows {
				w.mids = append(w.mids, occ)
			}
			return
		}
		// A signals per middle occurrence inside the window(s).
		switch ctx {
		case Recent:
			w := st.windows[len(st.windows)-1]
			n.emit(ctx, mergeOccs(n.eventName(), ctx, w.start, occ))
		case Chronicle:
			w := st.windows[0]
			n.emit(ctx, mergeOccs(n.eventName(), ctx, w.start, occ))
		case Continuous:
			for _, w := range st.windows {
				n.emit(ctx, mergeOccs(n.eventName(), ctx, w.start, occ))
			}
		case Cumulative:
			parts := []*Occ{}
			for _, w := range st.windows {
				parts = append(parts, w.start)
			}
			parts = append(parts, occ)
			n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
		}
	case 2: // window closes
		if len(st.windows) == 0 {
			return
		}
		if star {
			switch ctx {
			case Recent:
				w := st.windows[0]
				st.windows = nil
				if len(w.mids) > 0 {
					parts := append([]*Occ{w.start}, w.mids...)
					parts = append(parts, occ)
					n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
				}
			case Chronicle:
				w := st.windows[0]
				st.windows = st.windows[1:]
				if len(w.mids) > 0 {
					parts := append([]*Occ{w.start}, w.mids...)
					parts = append(parts, occ)
					n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
				}
			case Continuous:
				for _, w := range st.windows {
					if len(w.mids) > 0 {
						parts := append([]*Occ{w.start}, w.mids...)
						parts = append(parts, occ)
						n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
					}
				}
				st.windows = nil
			case Cumulative:
				var parts []*Occ
				any := false
				for _, w := range st.windows {
					parts = append(parts, w.start)
					if len(w.mids) > 0 {
						any = true
						parts = append(parts, w.mids...)
					}
				}
				st.windows = nil
				if any {
					parts = append(parts, occ)
					n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
				}
			}
			return
		}
		// Plain A: E just closes windows.
		switch ctx {
		case Recent, Continuous, Cumulative:
			st.windows = nil
		case Chronicle:
			st.windows = st.windows[1:]
		}
	}
}

// onPeriodic implements P(S, [t], E) and P*(S, [t], E).
func (n *node) onPeriodic(ctx Context, st *opState, idx int, occ *Occ) {
	star := n.kind == kPerStar
	switch idx {
	case 0: // start: open a window with a repeating timer
		if ctx == Recent {
			for _, w := range st.windows {
				n.stopWindow(w)
			}
			st.windows = nil
		}
		w := &window{start: occ}
		st.windows = append(st.windows, w)
		n.armPeriodic(ctx, st, w)
	case 1: // end: close window(s)
		close := func(w *window) {
			n.stopWindow(w)
			if star && len(w.mids) > 0 {
				parts := append([]*Occ{w.start}, w.mids...)
				parts = append(parts, occ)
				n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
			}
		}
		switch ctx {
		case Chronicle:
			if len(st.windows) > 0 {
				close(st.windows[0])
				st.windows = st.windows[1:]
			}
		default:
			for _, w := range st.windows {
				close(w)
			}
			st.windows = nil
		}
	}
}

// armPeriodic schedules the next tick of a periodic window at its logical
// deadline: the start occurrence's time plus a whole number of periods.
// The tick carries the deadline as its At, so replaying a restored window
// reproduces byte-identical tick occurrences.
func (n *node) armPeriodic(ctx Context, st *opState, w *window) {
	if w.next.IsZero() {
		w.next = w.start.At.Add(n.dur)
	}
	w.cancel = n.led.armTimer(w.next, func(at time.Time) {
		// The window may have been closed between firing and lock
		// acquisition.
		open := false
		for _, ww := range st.windows {
			if ww == w {
				open = true
				break
			}
		}
		if !open {
			return
		}
		tick := &Occ{
			Event: n.eventName(),
			At:    at,
			Constituents: []Primitive{{
				Event: n.eventName(), Op: "tick", At: at,
			}},
		}
		if n.kind == kPerStar {
			w.mids = append(w.mids, tick)
		} else {
			n.emit(ctx, mergeOccs(n.eventName(), ctx, w.start, tick))
		}
		w.next = at.Add(n.dur)
		n.armPeriodic(ctx, st, w)
	})
}

func (n *node) stopWindow(w *window) {
	if w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
}

// onPlus schedules the delayed re-emission of the child occurrence. The
// pending emission lives in opState (not just the timer closure) so a
// checkpoint can capture and a restore re-arm it.
func (n *node) onPlus(ctx Context, st *opState, occ *Occ) {
	p := &plusPending{occ: occ, at: occ.At.Add(n.dur)}
	st.plus = append(st.plus, p)
	n.armPlus(ctx, st, p)
}

// armPlus arms the timer for one pending PLUS emission.
func (n *node) armPlus(ctx Context, st *opState, p *plusPending) {
	n.led.armTimer(p.at, func(time.Time) {
		for i, q := range st.plus {
			if q == p {
				st.plus = append(st.plus[:i], st.plus[i+1:]...)
				break
			}
		}
		out := p.occ.clone()
		out.At = p.at
		out.Constituents = append(out.Constituents, Primitive{
			Event: n.eventName(), Op: "time", At: p.at,
		})
		n.emit(ctx, out)
	})
}

// scheduleTemporal arms a one-shot absolute-time event.
func (n *node) scheduleTemporal(ctx Context) {
	if n.absAt.Before(n.led.clock.Now()) {
		return // already past; never fires
	}
	n.armTemporal(ctx)
}

// armTemporal arms the temporal timer; the done flag makes firing one-shot
// even when a restore re-arms alongside an activate-time timer.
func (n *node) armTemporal(ctx Context) {
	n.led.armTimer(n.absAt, func(time.Time) {
		st := n.state[ctx]
		if st == nil || st.done {
			return
		}
		st.done = true
		occ := &Occ{
			Event: n.eventName(),
			At:    n.absAt,
			Constituents: []Primitive{{
				Event: n.eventName(), Op: "time", At: n.absAt,
			}},
		}
		n.emit(ctx, occ)
	})
}
