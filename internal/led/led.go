// Package led implements the Local Event Detector: the Sentinel-style
// event-graph detector for Snoop composite events that the ECA agent embeds
// (Section 3 of the paper). Primitive event occurrences are signalled into
// the graph; operator nodes detect composite occurrences under the four
// parameter contexts (RECENT, CHRONICLE, CONTINUOUS, CUMULATIVE); every
// firing of a rule attached to an event is handed to the rule's action in
// priority order before the propagation that detected it returns. The
// coupling mode is the rule's label for its action; the LED keeps no
// firing.
//
// The whole graph sits behind one lock: the agent signals the detector from
// one serial ingest path, so finer locking would have nothing to run in
// parallel (see DESIGN.md, "Local event detection: one lock").
package led

import (
	"fmt"
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
// implements all three in the agent, which applies a rule's coupling to
// the firings the LED hands it.
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

// firing is one pending rule execution.
type firing struct {
	rule *Rule
	occ  *Occ
}

// LED is the local event detector. All exported methods are safe for
// concurrent use.
//
// Lock order: mu, then timMu (a leaf). mu is the detector lock: every
// graph propagation (Signal, timer dispatch), definition change and
// checkpoint holds it, so each sees the graph and its operator state as
// one consistent cut. Rule actions always run after it is released, on
// the propagating goroutine.
type LED struct {
	clock Clock

	mu    sync.Mutex
	nodes map[string]*node // guarded by mu
	rules map[string]*Rule // guarded by mu
	// pending accumulates rule firings during one graph propagation.
	pending []firing // guarded by mu

	// timMu guards the logical timer registry (timers.go). Leaf lock:
	// nothing is acquired while holding it.
	timMu   sync.Mutex
	timers  map[uint64]*logTimer
	timNext uint64

	// spare holds one recycled per-propagation pending slice (scratch.go),
	// so a warmed Signal carries no per-call bookkeeping allocation.
	spare atomic.Pointer[firingScratch]

	// met holds the optional instruments (see EnableMetrics); loaded
	// atomically so Signal never takes an extra lock for them.
	met metAtomic
}

// New returns a LED. A nil clock selects the real-time clock.
func New(clock Clock) *LED {
	if clock == nil {
		clock = realClock{}
	}
	return &LED{
		clock: clock,
		nodes: make(map[string]*node),
		rules: make(map[string]*Rule),
	}
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

// Rule is an ECA rule: when Event is detected in Context, run Action.
// Higher Priority rules run first among rules fired by the same signal.
// Coupling is the rule's label for its action (the event graph shows it);
// the LED hands every firing to Action the same way.
type Rule struct {
	Name     string
	Event    string
	Context  Context
	Coupling Coupling
	Priority int
	Action   func(*Occ)
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
// Notifier when a server notification arrives) and runs the rule actions
// it fires before returning. Unknown events are ignored, matching the
// notifier's tolerance of stray datagrams.
func (l *LED) Signal(p Primitive) {
	if p.At.IsZero() {
		p.At = l.clock.Now()
	}
	m := l.met.Load()
	var start time.Time
	if m != nil {
		start = l.clock.Now()
	}
	scr := l.detect(func() { l.signalLocked(p) })
	if m != nil {
		// Detection only, lock wait included: the actions below are not
		// part of it. Measured through the clock seam so the histogram is
		// exact (and typically zero) under ManualClock replay.
		m.detectSec.Observe(l.clock.Now().Sub(start).Seconds())
	}
	l.fire(scr)
}

// signalLocked delivers p to its primitive node. Caller holds mu.
func (l *LED) signalLocked(p Primitive) {
	if n := l.nodes[p.Event]; n != nil && n.kind == kPrimitive {
		n.emitPrimitive(p)
	}
}

// dispatch runs one graph propagation — a signal, or a timer callback
// (periodic tick, PLUS delay, absolute-time event, window boundary) — and
// then the rule actions it fired.
func (l *LED) dispatch(fn func()) { l.fire(l.detect(fn)) }

// detect runs fn under mu and returns the firings it produced in priority
// order, then detection order.
func (l *LED) detect(fn func()) *firingScratch {
	scr := l.getScratch()
	l.mu.Lock()
	l.pending = scr.fs[:0]
	fn()
	// Keep the (possibly regrown) backing array with the scratch so the
	// spare learns the propagation's working-set size.
	scr.fs = l.pending
	l.pending = nil
	sortFirings(scr.fs)
	l.mu.Unlock()
	return scr
}

// fire hands every firing of one propagation to its rule's action, in
// order, and recycles the scratch. The LED only detects: a rule's Action
// is its hand-off to whatever executes it (the agent's action queue, or
// its held list for a DEFERRED rule), so no coupling needs a path of its
// own here.
func (l *LED) fire(scr *firingScratch) {
	for _, f := range scr.fs {
		f.rule.Action(f.occ)
	}
	l.putScratch(scr)
}

// Wait returns at once: every action has run before the Signal or timer
// dispatch that fired it returns, so there is nothing left to wait for.
// It stays for callers outside this module's packages (the benchmark's
// LED probe).
func (l *LED) Wait() {}

// Now exposes the detector's clock.
func (l *LED) Now() time.Time { return l.clock.Now() }
