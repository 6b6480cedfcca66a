// Package led implements the Local Event Detector: the Sentinel-style
// event-graph detector for Snoop composite events that the ECA agent embeds
// (Section 3 of the paper). Primitive event occurrences are signalled into
// the graph; operator nodes detect composite occurrences under the four
// parameter contexts (RECENT, CHRONICLE, CONTINUOUS, CUMULATIVE); rules
// attached to events run with IMMEDIATE, DEFERRED or DETACHED coupling and
// priority ordering.
//
// Detection is sharded by connected component of the event graph: rules and
// composites that share no event are provably independent, so each
// component lives in its own shard with its own lock and independent rule
// sets detect in parallel. Signal routes through a read-locked event→shard
// index; DefineComposite merges the components it connects and DropEvent
// splits any component a drop disconnects (see DESIGN.md, "Sharded
// detection").
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

// Options tunes a LED.
type Options struct {
	// MaxShards caps the number of event-graph shards. 0 means one shard
	// per connected component (the default); 1 reproduces the historical
	// single-lock detector — every event in one shard behind one mutex —
	// which the differential equivalence suite uses as its oracle.
	MaxShards int
	// DetachedWorkers caps the goroutines running DETACHED rule actions
	// (0 selects 4×GOMAXPROCS). Detached firings beyond the cap queue and
	// run as workers free up instead of each spawning a goroutine.
	DetachedWorkers int
}

// LED is the local event detector. All exported methods are safe for
// concurrent use.
//
// Lock order: mu (topology: shard set, event→shard and rule→shard indexes,
// every node's shard pointer) before any shard.mu, before defMu. Signal and
// timer dispatch hold mu for read only, so independent shards detect
// concurrently; definition and drop operations hold mu for write, which
// excludes all detection and makes rebalancing safe without touching shard
// locks.
type LED struct {
	mu    sync.RWMutex
	clock Clock

	shards     map[int]*shard
	eventShard map[string]*shard // event name → owning shard
	ruleShard  map[string]*shard // rule name → owning shard
	nextShard  int
	maxShards  int

	// defMu guards the global deferred queue. Deferred firings from every
	// shard funnel here so FlushDeferred preserves the pre-shard priority
	// ordering across independent rule sets.
	defMu    sync.Mutex
	deferred []firing

	// pool bounds DETACHED rule concurrency (it also owns the WaitGroup
	// behind Wait).
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
	// Acquired after mu/defMu, never before them.
	outMu       sync.Mutex
	outstanding map[uint64]firing
	outSeq      uint64
	track       atomic.Bool

	// met holds the optional instruments (see EnableMetrics); loaded
	// atomically so Signal never takes an extra lock for them.
	met metAtomic
}

// New returns a LED with default options. A nil clock selects the
// real-time clock.
func New(clock Clock) *LED { return NewWithOptions(clock, Options{}) }

// NewWithOptions returns a LED with explicit sharding and pool options.
func NewWithOptions(clock Clock, opt Options) *LED {
	if clock == nil {
		clock = realClock{}
	}
	workers := opt.DetachedWorkers
	if workers <= 0 {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	l := &LED{
		clock:      clock,
		shards:     make(map[int]*shard),
		eventShard: make(map[string]*shard),
		ruleShard:  make(map[string]*shard),
		maxShards:  opt.MaxShards,
	}
	l.pool.maxWorkers = workers
	l.pool.run = func(f firing) {
		l.runRule(f)
		l.clearFired(f.seq)
	}
	return l
}

// DefinePrimitive registers a primitive event name. A fresh primitive is
// its own connected component, so it opens a new shard (unless MaxShards
// forces placement into an existing one).
func (l *LED) DefinePrimitive(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.eventShard[name]; ok {
		return fmt.Errorf("led: event %q already defined", name)
	}
	sh := l.placeShard()
	sh.nodes[name] = &node{led: l, sh: sh, name: name, kind: kPrimitive}
	l.eventShard[name] = sh
	return nil
}

// DefineComposite registers a named composite event over a Snoop
// expression. Every event referenced by the expression must already be
// defined (primitive or composite), enabling the event reuse the paper
// lists as contribution 2. The components of the referenced events are
// merged into one shard — they are no longer independent — and the
// composite's graph is built there.
func (l *LED) DefineComposite(name string, expr snoop.Expr) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.eventShard[name]; ok {
		return fmt.Errorf("led: event %q already defined", name)
	}
	refs := snoop.EventNames(expr)
	// Validate before merging so a failed define never changes topology.
	for _, ref := range refs {
		if _, ok := l.eventShard[ref]; !ok {
			return fmt.Errorf("led: event %q is not defined", ref)
		}
	}
	if err := validateExpr(expr); err != nil {
		return err
	}
	sh := l.mergeFor(refs)
	n, err := sh.build(expr)
	if err != nil {
		return err
	}
	n.name = name
	sh.nodes[name] = n
	l.eventShard[name] = sh
	for _, ref := range refs {
		sh.refs[ref]++
	}
	return nil
}

// validateExpr rejects expressions build would refuse, without building.
func validateExpr(expr snoop.Expr) error {
	var err error
	snoop.Walk(expr, func(e snoop.Expr) {
		if err != nil {
			return
		}
		switch x := e.(type) {
		case *snoop.Periodic:
			if x.Period <= 0 {
				err = fmt.Errorf("led: periodic event needs a positive period")
			}
		case *snoop.Plus:
			if x.Delta < 0 {
				err = fmt.Errorf("led: PLUS needs a non-negative delay")
			}
		case *snoop.Window:
			err = validateWindow(x.Size, x.Slide)
		case *snoop.Agg:
			err = validateAgg(x)
		case *snoop.Interval:
			_, err = intervalKind(x.Rel)
		}
	})
	return err
}

// HasEvent reports whether an event name is defined.
func (l *LED) HasEvent(name string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.eventShard[name]
	return ok
}

// EventNames lists defined events in sorted order.
func (l *LED) EventNames() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.eventShard))
	for n := range l.eventShard {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DropEvent removes a named event. It fails while other composites
// reference it or rules are attached to it. Dropping a composite can
// disconnect the component it held together; the shard is then split so
// the now-independent rule sets stop sharing a lock.
func (l *LED) DropEvent(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sh, ok := l.eventShard[name]
	if !ok {
		return fmt.Errorf("led: event %q not defined", name)
	}
	if sh.refs[name] > 0 {
		return fmt.Errorf("led: event %q is referenced by other events", name)
	}
	for _, r := range sh.rules {
		if r.Event == name {
			return fmt.Errorf("led: event %q has rule %q attached", name, r.Name)
		}
	}
	n := sh.nodes[name]
	n.shutdown()
	// Unsubscribe the dropped graph from its surviving constituents:
	// without this, a later split would leave cross-shard subscriptions
	// into the dropped composite's orphaned operator state.
	dropped := make(map[*node]bool)
	forEachOwnedNode(n, func(m *node) { dropped[m] = true })
	for _, root := range sh.nodes {
		forEachOwnedNode(root, func(m *node) { m.pruneSubs(dropped) })
	}
	delete(sh.nodes, name)
	delete(l.eventShard, name)
	if n.expr != nil {
		for _, ref := range snoop.EventNames(n.expr) {
			if sh.refs[ref]--; sh.refs[ref] <= 0 {
				delete(sh.refs, ref)
			}
		}
	}
	l.resplit(sh)
	return nil
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
// native one-trigger-per-operation restriction of §2.2). The rule lives in
// its event's shard; it references no other event, so no components merge.
func (l *LED) AddRule(r *Rule) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Name == "" || r.Action == nil {
		return fmt.Errorf("led: rule needs a name and an action")
	}
	if _, ok := l.ruleShard[r.Name]; ok {
		return fmt.Errorf("led: rule %q already defined", r.Name)
	}
	sh, ok := l.eventShard[r.Event]
	if !ok {
		return fmt.Errorf("led: rule %q references undefined event %q", r.Name, r.Event)
	}
	n := sh.nodes[r.Event]
	sh.rules[r.Name] = r
	l.ruleShard[r.Name] = sh
	n.activate(r.Context)
	n.subscribeRule(r, func(occ *Occ) {
		if r.disabled {
			return
		}
		// n.sh, not a captured shard: rebalancing moves the node (and the
		// propagation that reaches this closure) to its current shard.
		n.sh.pending = append(n.sh.pending, firing{rule: r, occ: occ})
	})
	return nil
}

// DropRule detaches a rule. Components are keyed by composite references,
// not rules, so no split can result.
func (l *LED) DropRule(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sh, ok := l.ruleShard[name]
	if !ok {
		return fmt.Errorf("led: rule %q not defined", name)
	}
	r := sh.rules[name]
	r.disabled = true
	delete(sh.rules, name)
	delete(l.ruleShard, name)
	if n, ok := sh.nodes[r.Event]; ok {
		n.unsubscribeRule(r)
	}
	return nil
}

// RuleNames lists attached rules in sorted order.
func (l *LED) RuleNames() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.ruleShard))
	for n := range l.ruleShard {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Signal injects a primitive event occurrence (called by the agent's Event
// Notifier when a server notification arrives). Unknown events are
// ignored, matching the notifier's tolerance of stray datagrams. The
// event→shard index is consulted under a read lock, so signals into
// independent components propagate concurrently; only signals into the
// same component serialize on that shard's lock.
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
	l.mu.RLock()
	sh, ok := l.eventShard[p.Event]
	if !ok {
		l.mu.RUnlock()
		return
	}
	scr := l.firings.get()
	fired := sh.collect(scr, func() {
		n := sh.nodes[p.Event]
		if n == nil || n.kind != kPrimitive {
			return
		}
		n.emitPrimitive(p)
	})
	// Note outstanding firings before releasing the topology lock, so a
	// checkpoint (which takes it for write) sees node state and pending
	// firings as one consistent cut.
	l.noteFired(fired, false)
	l.mu.RUnlock()
	l.runFirings(fired)
	l.firings.put(scr)
}

// ShardID reports the shard currently owning an event (-1 when the event
// is not defined); the id is stable between definition changes.
func (l *LED) ShardID(event string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if sh, ok := l.eventShard[event]; ok {
		return sh.id
	}
	return -1
}

// ShardCount reports the number of shards (connected components, modulo
// the MaxShards cap).
func (l *LED) ShardCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.shards)
}

// ShardSizes reports the per-shard occupancy (number of named events),
// largest first — the skew a rebalance aims to keep small.
func (l *LED) ShardSizes() []int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]int, 0, len(l.shards))
	for _, sh := range l.shards {
		out = append(out, len(sh.nodes))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// dispatchNode runs fn in the shard currently owning n (timer callbacks:
// periodic ticks, PLUS delays, absolute-time events), then executes the
// rule firings it produced.
func (l *LED) dispatchNode(n *node, fn func()) {
	l.mu.RLock()
	scr := l.firings.get()
	fired := n.sh.collect(scr, fn)
	l.noteFired(fired, false)
	l.mu.RUnlock()
	l.runFirings(fired)
	l.firings.put(scr)
}

// runFirings executes rule firings detection produced: immediate
// synchronously (already in priority order), detached via the bounded
// worker pool. Deferred firings were queued by collect.
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
	l.defMu.Lock()
	queued := l.deferred
	l.deferred = nil
	// Hand the popped batch to the outstanding set inside the same
	// critical section as the swap: a checkpoint cut between the swap and
	// the runs would otherwise see the firings in neither the deferred
	// queue nor the outstanding set.
	l.noteFired(queued, true)
	l.defMu.Unlock()
	// Filter disabled rules under the topology read lock: DropRule flips
	// disabled while holding it for write, so reading it outside would
	// race.
	l.mu.RLock()
	kept := queued[:0]
	for _, f := range queued {
		if !f.rule.disabled {
			kept = append(kept, f)
		} else {
			l.clearFired(f.seq)
		}
	}
	l.mu.RUnlock()
	sortFirings(kept)
	for _, f := range kept {
		l.runRule(f)
		l.clearFired(f.seq)
	}
}

// DeferredCount reports the number of queued deferred firings.
func (l *LED) DeferredCount() int {
	l.defMu.Lock()
	defer l.defMu.Unlock()
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
