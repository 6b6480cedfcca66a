// Package led implements the Local Event Detector: the Sentinel-style
// event-graph detector for Snoop composite events that the ECA agent embeds
// (Section 3 of the paper). Primitive event occurrences are signalled into
// the graph; operator nodes detect composite occurrences under the four
// parameter contexts (RECENT, CHRONICLE, CONTINUOUS, CUMULATIVE); rules
// attached to events run with IMMEDIATE, DEFERRED or DETACHED coupling and
// priority ordering.
//
// The whole graph sits behind one lock: the agent signals the detector from
// one serial ingest path, so finer locking would have nothing to run in
// parallel (see DESIGN.md, "Local event detection: one lock").
package led

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/snoop"
)

// Context is a Snoop parameter context [CHA94].
type Context int

// The four parameter contexts.
const (
	Recent Context = iota
	Chronicle
	Continuous
	Cumulative
)

// String returns the paper's spelling of the context.
func (c Context) String() string {
	switch c {
	case Recent:
		return "RECENT"
	case Chronicle:
		return "CHRONICLE"
	case Continuous:
		return "CONTINUOUS"
	case Cumulative:
		return "CUMULATIVE"
	default:
		return fmt.Sprintf("Context(%d)", int(c))
	}
}

// ParseContext parses a context keyword (case-insensitive).
func ParseContext(s string) (Context, error) {
	switch {
	case equalFold(s, "RECENT"):
		return Recent, nil
	case equalFold(s, "CHRONICLE"):
		return Chronicle, nil
	case equalFold(s, "CONTINUOUS"):
		return Continuous, nil
	case equalFold(s, "CUMULATIVE"):
		return Cumulative, nil
	default:
		return 0, fmt.Errorf("led: unknown parameter context %q", s)
	}
}

// Coupling is a rule coupling mode. The paper's prototype implements only
// IMMEDIATE and lists the others as future work; this reproduction
// implements all three.
type Coupling int

// The three coupling modes.
const (
	Immediate Coupling = iota
	Deferred
	Detached
)

// String returns the paper's spelling of the coupling mode.
func (c Coupling) String() string {
	switch c {
	case Immediate:
		return "IMMEDIATE"
	case Deferred:
		return "DEFERRED"
	case Detached:
		return "DETACHED"
	default:
		return fmt.Sprintf("Coupling(%d)", int(c))
	}
}

// ParseCoupling parses a coupling keyword. The paper's grammar spells
// deferred "DEFERED"; both spellings are accepted.
func ParseCoupling(s string) (Coupling, error) {
	switch {
	case equalFold(s, "IMMEDIATE"):
		return Immediate, nil
	case equalFold(s, "DEFERRED"), equalFold(s, "DEFERED"):
		return Deferred, nil
	case equalFold(s, "DETACHED"):
		return Detached, nil
	default:
		return 0, fmt.Errorf("led: unknown coupling mode %q", s)
	}
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Primitive is one primitive event occurrence: the decoded content of a
// notification from the SQL server (Figure 13/15 of the paper).
type Primitive struct {
	Event string    // fully expanded event name
	Table string    // table the trigger fired on
	Op    string    // insert | update | delete | tick | time
	VNo   int       // occurrence number recorded in the shadow table
	At    time.Time // occurrence timestamp
}

// Occ is a detected event occurrence. For a primitive event the
// constituent list has one entry; for a composite it holds every
// constituent primitive in occurrence-time order, which is exactly the
// parameter data the agent materializes into sysContext.
type Occ struct {
	Event        string
	Context      Context
	At           time.Time
	Constituents []Primitive
}

// clone returns a deep copy (constituent slice is copied).
func (o *Occ) clone() *Occ {
	c := *o
	c.Constituents = append([]Primitive(nil), o.Constituents...)
	return &c
}

// mergeOccs combines constituent occurrences into a new composite
// occurrence. The occurrence time is the latest constituent time
// (terminator semantics). The constituent slice is sized exactly and
// insertion-sorted in place (stable, like the sort.SliceStable it
// replaces) — composite constituent lists are short, and the closure-free
// sort keeps the detect path's allocation count flat.
func mergeOccs(event string, ctx Context, parts ...*Occ) *Occ {
	out := &Occ{Event: event, Context: ctx}
	total := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		total += len(p.Constituents)
		if p.At.After(out.At) {
			out.At = p.At
		}
	}
	cs := make([]Primitive, 0, total)
	for _, p := range parts {
		if p != nil {
			cs = append(cs, p.Constituents...)
		}
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].At.Before(cs[j-1].At); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	out.Constituents = cs
	return out
}

// Clock abstracts time for the periodic operators; tests use ManualClock.
type Clock interface {
	Now() time.Time
	// AfterFunc schedules f after d and returns a cancel function.
	AfterFunc(d time.Duration, f func()) (cancel func())
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) AfterFunc(d time.Duration, f func()) func() {
	t := time.AfterFunc(d, f)
	return func() { t.Stop() }
}

// SystemClock returns the wall-clock Clock the LED defaults to. Exported
// so other layers (the agent) can share one seam instead of each reaching
// for time.Now — which the nowallclock analyzer forbids in deterministic
// packages.
func SystemClock() Clock { return realClock{} }

// firing is one pending rule execution. seq is its outstanding-set key
// when firing tracking is on (see noteFired); zero otherwise.
type firing struct {
	rule *Rule
	occ  *Occ
	seq  uint64
}

// LED is the local event detector. All exported methods are safe for
// concurrent use.
//
// Lock order: mu before outMu. timMu and the detached pool's lock are
// leaves. mu is the detector lock: every graph propagation (Signal, timer
// dispatch), definition change, deferred flush and checkpoint holds it, so
// each sees the graph, its operator state and the queued firings as one
// consistent cut. Rule actions always run after it is released.
type LED struct {
	clock Clock

	mu    sync.Mutex
	nodes map[string]*node // guarded by mu
	rules map[string]*Rule // guarded by mu
	// refs counts how many composites reference each named event, so drops
	// are refused while dependents exist.
	refs map[string]int // guarded by mu
	// pending accumulates rule firings during one graph propagation.
	pending []firing // guarded by mu
	// deferred queues DEFERRED firings, in detection order, until
	// FlushDeferred.
	deferred []firing // guarded by mu

	// pool bounds DETACHED rule concurrency at 4×GOMAXPROCS workers (it
	// also owns the WaitGroup behind Wait).
	pool detachedPool

	// timMu guards the logical timer registry (timers.go). Leaf lock:
	// nothing is acquired while holding it.
	timMu   sync.Mutex
	timers  map[uint64]*logTimer
	timNext uint64

	// firings recycles the per-propagation pending slices (pool.go), so a
	// warmed Signal carries no per-call bookkeeping allocation.
	firings firingPool

	// outMu guards the outstanding-firing set (snapshot.go): firings
	// detected but not yet durably handed off to their rule actions.
	// Acquired after mu, never before it.
	outMu       sync.Mutex
	outstanding map[uint64]firing
	outSeq      uint64
	track       atomic.Bool

	// met holds the optional instruments (see EnableMetrics); loaded
	// atomically so Signal never takes an extra lock for them.
	met metAtomic
}

// New returns a LED. A nil clock selects the real-time clock.
func New(clock Clock) *LED {
	if clock == nil {
		clock = realClock{}
	}
	l := &LED{
		clock: clock,
		nodes: make(map[string]*node),
		rules: make(map[string]*Rule),
		refs:  make(map[string]int),
	}
	l.pool.maxWorkers = 4 * runtime.GOMAXPROCS(0)
	l.pool.run = func(f firing) {
		l.runRule(f)
		l.clearFired(f.seq)
	}
	return l
}

// DefinePrimitive registers a primitive event name.
func (l *LED) DefinePrimitive(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.nodes[name]; ok {
		return fmt.Errorf("led: event %q already defined", name)
	}
	l.nodes[name] = &node{led: l, name: name, kind: kPrimitive}
	return nil
}

// DefineComposite registers a named composite event over a Snoop
// expression. Every event referenced by the expression must already be
// defined (primitive or composite), enabling the event reuse the paper
// lists as contribution 2.
func (l *LED) DefineComposite(name string, expr snoop.Expr) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.nodes[name]; ok {
		return fmt.Errorf("led: event %q already defined", name)
	}
	n, err := l.buildLocked(expr)
	if err != nil {
		return err
	}
	n.name = name
	l.nodes[name] = n
	for _, ref := range snoop.EventNames(expr) {
		l.refs[ref]++
	}
	return nil
}

// HasEvent reports whether an event name is defined.
func (l *LED) HasEvent(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.nodes[name]
	return ok
}

// EventNames lists defined events in sorted order.
func (l *LED) EventNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.nodes))
	for n := range l.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DropEvent removes a named event. It fails while other composites
// reference it or rules are attached to it.
func (l *LED) DropEvent(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.nodes[name]
	if !ok {
		return fmt.Errorf("led: event %q not defined", name)
	}
	if l.refs[name] > 0 {
		return fmt.Errorf("led: event %q is referenced by other events", name)
	}
	for _, r := range l.rules {
		if r.Event == name {
			return fmt.Errorf("led: event %q has rule %q attached", name, r.Name)
		}
	}
	n.shutdown()
	// Unsubscribe the dropped graph from its surviving constituents, which
	// would otherwise keep feeding the dropped composite's orphaned
	// operator state.
	dropped := make(map[*node]bool)
	forEachOwnedNode(n, func(m *node) { dropped[m] = true })
	for _, root := range l.nodes {
		forEachOwnedNode(root, func(m *node) { m.pruneSubs(dropped) })
	}
	delete(l.nodes, name)
	if n.expr != nil {
		for _, ref := range snoop.EventNames(n.expr) {
			if l.refs[ref]--; l.refs[ref] <= 0 {
				delete(l.refs, ref)
			}
		}
	}
	return nil
}

// forEachOwnedNode visits a named root and the anonymous operator nodes it
// owns (recursion stops at named children — those belong to their own
// registration).
func forEachOwnedNode(root *node, fn func(*node)) {
	fn(root)
	for _, c := range root.children {
		if c.name == "" {
			forEachOwnedNode(c, fn)
		}
	}
}

// Rule is an ECA rule: when Event is detected in Context, and Condition
// holds, run Action under the given Coupling. Higher Priority rules run
// first among rules fired by the same signal.
type Rule struct {
	Name      string
	Event     string
	Context   Context
	Coupling  Coupling
	Priority  int
	Condition func(*Occ) bool // nil means always
	Action    func(*Occ)

	disabled bool
}

// AddRule attaches a rule, activating detection of its event in its
// context. Multiple rules on the same event are supported (lifting the
// native one-trigger-per-operation restriction of §2.2).
func (l *LED) AddRule(r *Rule) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Name == "" || r.Action == nil {
		return fmt.Errorf("led: rule needs a name and an action")
	}
	if _, ok := l.rules[r.Name]; ok {
		return fmt.Errorf("led: rule %q already defined", r.Name)
	}
	n, ok := l.nodes[r.Event]
	if !ok {
		return fmt.Errorf("led: rule %q references undefined event %q", r.Name, r.Event)
	}
	l.rules[r.Name] = r
	n.activate(r.Context)
	n.subscribeRule(r, func(occ *Occ) {
		if r.disabled {
			return
		}
		l.pending = append(l.pending, firing{rule: r, occ: occ})
	})
	return nil
}

// DropRule detaches a rule.
func (l *LED) DropRule(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.rules[name]
	if !ok {
		return fmt.Errorf("led: rule %q not defined", name)
	}
	r.disabled = true
	delete(l.rules, name)
	if n, ok := l.nodes[r.Event]; ok {
		n.unsubscribeRule(r)
	}
	return nil
}

// RuleNames lists attached rules in sorted order.
func (l *LED) RuleNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.rules))
	for n := range l.rules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Signal injects a primitive event occurrence (called by the agent's Event
// Notifier when a server notification arrives). Unknown events are
// ignored, matching the notifier's tolerance of stray datagrams.
func (l *LED) Signal(p Primitive) {
	if p.At.IsZero() {
		p.At = l.clock.Now()
	}
	if m := l.met.Load(); m != nil {
		// Measure through the clock seam so the histogram is exact (and
		// typically zero) under ManualClock replay.
		start := l.clock.Now()
		defer func() { m.detectSec.Observe(l.clock.Now().Sub(start).Seconds()) }()
	}
	l.dispatch(func() { l.signalLocked(p) })
}

// signalLocked delivers p to its primitive node. Caller holds mu.
func (l *LED) signalLocked(p Primitive) {
	if n := l.nodes[p.Event]; n != nil && n.kind == kPrimitive {
		n.emitPrimitive(p)
	}
}

// dispatch runs fn — one graph propagation: a signal, or a timer callback
// (periodic tick, PLUS delay, absolute-time event, window boundary) —
// under mu, queues the deferred firings it produced, and executes the rest
// after releasing the lock.
func (l *LED) dispatch(fn func()) {
	scr := l.firings.get()
	l.mu.Lock()
	l.pending = scr.fs[:0]
	fn()
	fired := l.pending
	l.pending = nil
	// Keep the (possibly regrown) backing array with the scratch so the
	// pool learns the propagation's working-set size.
	scr.fs = fired
	// Stable insertion sort by descending priority; equal priorities keep
	// detection order (allocation-free, see sortFirings).
	sortFirings(fired)
	for _, f := range fired {
		if f.rule.Coupling == Deferred {
			l.deferred = append(l.deferred, f)
		}
	}
	// Note outstanding firings before unlocking, so a checkpoint sees node
	// state and not-yet-executed firings as one consistent cut.
	l.noteFired(fired, false)
	l.mu.Unlock()
	l.runFirings(fired)
	l.firings.put(scr)
}

// runFirings executes rule firings detection produced: immediate
// synchronously (already in priority order), detached via the bounded
// worker pool. Deferred firings were queued by dispatch.
func (l *LED) runFirings(fired []firing) {
	for _, f := range fired {
		switch f.rule.Coupling {
		case Immediate:
			l.runRule(f)
			l.clearFired(f.seq)
		case Detached:
			l.pool.submit(f)
		}
	}
}

func (l *LED) runRule(f firing) {
	if f.rule.Condition != nil && !f.rule.Condition(f.occ) {
		return
	}
	f.rule.Action(f.occ)
}

// FlushDeferred runs all queued deferred rule firings (the agent calls
// this at transaction boundaries).
func (l *LED) FlushDeferred() {
	l.mu.Lock()
	queued := l.deferred
	l.deferred = nil
	kept := queued[:0]
	for _, f := range queued {
		if !f.rule.disabled { // DropRule since the firing was queued
			kept = append(kept, f)
		}
	}
	// Hand the popped batch to the outstanding set inside the same
	// critical section as the swap: a checkpoint cut between the swap and
	// the runs would otherwise see the firings in neither the deferred
	// queue nor the outstanding set.
	l.noteFired(kept, true)
	l.mu.Unlock()
	sortFirings(kept)
	for _, f := range kept {
		l.runRule(f)
		l.clearFired(f.seq)
	}
}

// DeferredCount reports the number of queued deferred firings.
func (l *LED) DeferredCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.deferred)
}

// Wait blocks until all detached rule executions submitted so far finish
// (used by tests and orderly shutdown). With the bounded pool this drains
// the detached queue, not just in-flight goroutines.
func (l *LED) Wait() { l.pool.wait() }

// DetachedStats reports the detached pool's current queue depth, running
// workers, and the peak worker count observed (which the burst regression
// test asserts stays at the cap).
func (l *LED) DetachedStats() (queued, workers, peak int) {
	return l.pool.stats()
}

// Now exposes the detector's clock.
func (l *LED) Now() time.Time { return l.clock.Now() }
