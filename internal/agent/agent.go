package agent

import (
	"cmp"
	"fmt"
	"log"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/snoop"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

// Config configures an Agent.
type Config struct {
	// Dial opens upstream connections to the SQL server. Required.
	Dial UpstreamDialer
	// AdminUser is the privileged login the Persistent Manager and Action
	// Handler use (the paper grants the agent's connection DBA privilege).
	// Defaults to "dbo".
	AdminUser string
	// NotifyAddr is the UDP address the Event Notifier binds
	// ("127.0.0.1:0" by default). Set to "-" to disable the UDP listener
	// for fully in-process deployments; notifications then arrive only via
	// Deliver.
	NotifyAddr string
	// NotifyHost / NotifyPort override the address the code generator
	// embeds in triggers; by default the notifier's bound address is used.
	NotifyHost string
	NotifyPort int
	// Clock drives the LED's temporal operators; nil selects real time.
	Clock led.Clock
	// ActionBuffer sizes the ActionDone channel (default 256). When the
	// buffer is full, completed-action reports are dropped (the channel is
	// observational; rule execution itself is unaffected).
	ActionBuffer int
	// Forward, when set, receives every decoded primitive occurrence after
	// local detection — the hook a Global Event Detector site uses
	// (internal/ged) for the paper's distributed future-work extension.
	Forward func(p led.Primitive)
	// Logf receives diagnostics; defaults to log.Printf.
	Logf func(format string, args ...any)
	// Retry tunes the resilient decorator wrapped around the agent's own
	// upstream connections (Persistent Manager, Action Handler, recovery
	// sweep). Zero values select the defaults in RetryConfig.
	Retry RetryConfig
	// ResyncInterval is the period of the watermark sweep that recovers
	// notification losses no later datagram would reveal (see
	// Agent.Resync). 0 disables the background sweep; Resync can still be
	// called directly.
	ResyncInterval time.Duration
	// DrainTimeout bounds Close's wait for in-flight rule actions
	// (default 15s). Actions still running at the deadline are abandoned:
	// their upstream is closed underneath them and their failures are
	// dead-lettered.
	DrainTimeout time.Duration
	// DeadLetterLimit bounds the dead-letter queue of failed actions
	// (default 128); when full, the oldest entry is evicted.
	DeadLetterLimit int
	// Metrics is the registry the agent's instruments are registered in;
	// nil creates a fresh one (read it back via Agent.Metrics). Each agent
	// needs its own registry — the instruments are per-agent state.
	Metrics *obs.Registry
	// Durability, when set (with a Dir or FS), makes the agent crash-safe:
	// detector state is checkpointed, accepted occurrences and completed
	// actions are journaled in between, and startup recovery replays the
	// journal over the latest checkpoint and gap-fills from the shadow
	// tables — an exactly-once action stream across restarts under the
	// always/group sync policies. Nil keeps the pre-durability behavior
	// (volatile detector state, at-least-once from the watermark onward).
	Durability *Durability
}

// eventInfo is the agent's registration record for one event.
type eventInfo struct {
	Name      string // internal db.user.event
	DB        string
	User      string
	Primitive bool
	Table     string // internal db.user.table (primitive only)
	Op        sqlparse.TriggerOp
	Expr      string // expanded Snoop expression (composite only)
}

// triggerInfo is the registration record for one ECA trigger (rule).
type triggerInfo struct {
	Name     string // internal db.user.trigger
	DB       string
	User     string
	Event    string // internal event name
	Proc     string // internal action procedure name
	Coupling led.Coupling
	Context  led.Context
	Priority int
}

// Agent is the ECA agent: a mediator that adds full active-database
// capability to the SQL server it fronts (Figure 2 of the paper).
type Agent struct {
	cfg Config
	// clock is the shared time seam (cfg.Clock, defaulting to the system
	// clock). Every timestamp and latency measurement in the agent goes
	// through it so recovery and replay are deterministic under
	// led.ManualClock — enforced by the nowallclock analyzer.
	clock    led.Clock
	led      *led.LED
	pm       *persistentManager
	actions  *retryUpstream // the Action Handler's connection (runGroup)
	scripts  scriptWriter   // the action worker's alone (runGroup)
	notifier *notifier
	execs    atomic.Int32 // client statements inside ClientSession.Exec

	mu       sync.Mutex
	events   map[string]*eventInfo   // internal event name → info
	triggers map[string]*triggerInfo // internal trigger name → info
	// nativeByTableOp maps "db|table|op" to the owning primitive event,
	// enforcing one primitive event per native trigger slot.
	nativeByTableOp map[string]string

	// actionq serializes rule actions in detection (priority) order.
	actionq *actionQueue
	// ActionDone receives a report for every completed rule action.
	ActionDone chan ActionResult

	// met holds the registry-backed instruments surfaced by /metrics;
	// Stats() is a view over its counters.
	met *agentMetrics

	// rec tracks per-event delivery watermarks (gap detection), recUp is
	// the privileged connection the resync sweep reads authoritative vNos
	// over, and dlq parks terminally failed actions.
	rec   tracker
	recUp *retryUpstream
	dlq   deadLetterQueue
	// reportDropLogged gates the once-per-episode log when ActionDone
	// overflows.
	reportDropLogged atomic.Bool

	// dur is the checkpoint/WAL machinery (nil when durability is off);
	// ready is closed once startup recovery has seeded watermarks and
	// replayed the journal, gating the delivery surface until then.
	dur   *durableState
	ready chan struct{}
	// roleFn, when set, names this node's cluster role ("primary",
	// "standby", ...) for the readiness probe; nil means standalone.
	roleFn atomic.Pointer[func() string]
	// gateFn, when set, is an extra readiness veto consulted after
	// recovery completes (the cluster layer wires replication health in:
	// a sync primary whose standby is gone past the grace window must
	// fail its probe even though it is otherwise serving).
	gateFn atomic.Pointer[func() (string, bool)]

	// stopCh stops background goroutines; bgWG tracks them.
	stopCh   chan struct{}
	stopOnce sync.Once
	bgWG     sync.WaitGroup

	gateway *server.OpenServer
}

// New starts an agent: it connects the Persistent Manager and Action
// Handler to the server, restores persisted ECA rules (recovery, Figure 8),
// and starts the Event Notifier.
func New(cfg Config) (*Agent, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("agent: Config.Dial is required")
	}
	if cfg.AdminUser == "" {
		cfg.AdminUser = "dbo"
	}
	if cfg.NotifyAddr == "" {
		cfg.NotifyAddr = "127.0.0.1:0"
	}
	if cfg.ActionBuffer <= 0 {
		cfg.ActionBuffer = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 15 * time.Second
	}
	if cfg.DeadLetterLimit <= 0 {
		cfg.DeadLetterLimit = 128
	}
	a := &Agent{
		cfg:             cfg,
		events:          make(map[string]*eventInfo),
		triggers:        make(map[string]*triggerInfo),
		nativeByTableOp: make(map[string]string),
		ActionDone:      make(chan ActionResult, cfg.ActionBuffer),
		ready:           make(chan struct{}),
		stopCh:          make(chan struct{}),
	}
	a.clock = cfg.Clock
	if a.clock == nil {
		a.clock = led.SystemClock()
	}
	a.led = led.New(trackerClock{Clock: a.clock, mu: &a.rec.mu})
	a.rec.mu.Lock()
	a.rec.seen = make(map[string]*eventWatermark)
	a.rec.mu.Unlock()
	a.dlq.limit = cfg.DeadLetterLimit
	a.actionq = newActionQueue(a.runActions)
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a.initMetrics(reg)
	if cfg.Durability != nil && (cfg.Durability.FS != nil || cfg.Durability.Dir != "") {
		a.dur = newDurableState(a, *cfg.Durability)
	}
	// The agent's own connections are wrapped in the retry decorator so one
	// broken connection disables nothing: it is redialed with backoff, and
	// only terminal (server-answered) errors surface.
	dialAdmin := func() (Upstream, error) { return cfg.Dial(cfg.AdminUser, "") }
	mkRetry := func() *retryUpstream {
		return newRetryUpstream(dialAdmin, cfg.Retry, cfg.Logf,
			a.met.upstreamRetries.Inc, a.met.reconnects.Inc)
	}
	pm, err := newPersistentManager(mkRetry(), cfg.AdminUser)
	if err != nil {
		return nil, err
	}
	a.pm = pm
	a.actions = mkRetry()
	a.recUp = mkRetry()
	if cfg.NotifyAddr != "-" {
		n, err := startNotifier(a, cfg.NotifyAddr)
		if err != nil {
			a.Close()
			return nil, err
		}
		a.notifier = n
	}
	if err := a.recover(); err != nil {
		a.Close()
		return nil, err
	}
	if a.dur != nil {
		if err := a.recoverDurable(); err != nil {
			a.Close()
			return nil, err
		}
		if cfg.Durability.CheckpointInterval > 0 {
			a.bgWG.Add(1)
			go a.checkpointLoop(cfg.Durability.CheckpointInterval)
		}
	}
	// Only now may live notifications flow: the watermarks are seeded (and
	// under durability the journal is replayed), so a datagram racing the
	// startup can no longer be misjudged against uninitialized state.
	close(a.ready)
	if cfg.ResyncInterval > 0 {
		a.bgWG.Add(1)
		go a.resyncLoop(cfg.ResyncInterval)
	}
	return a, nil
}

// Close shuts the agent down: gateway, notifier, background sweeps, then a
// deadline-bounded drain of in-flight rule actions before the upstream
// connections are released. Actions still running at the drain deadline are
// abandoned — their connection is closed underneath them, which aborts the
// call, and the resulting failures land in the dead-letter queue.
func (a *Agent) Close() {
	a.stopOnce.Do(func() { close(a.stopCh) })
	if a.gateway != nil {
		a.gateway.Close()
	}
	if a.notifier != nil {
		a.notifier.close()
	}
	// The resync sweep's connection goes first: closing it fails a sweep
	// query hung on the server, which bgWG.Wait would otherwise wait out.
	a.recUp.Close()
	a.bgWG.Wait()
	if !a.drain(a.cfg.DrainTimeout) {
		a.cfg.Logf("agent: drain deadline %v exceeded; abandoning in-flight rule actions", a.cfg.DrainTimeout)
	}
	a.actionq.stop()
	if a.dur != nil && a.dur.recovered() {
		// Final checkpoint: the dead-letter queue and any still-pending
		// actions (including ones abandoned at the drain deadline) are
		// persisted so the next start resumes them.
		if err := a.Checkpoint(); err != nil {
			a.cfg.Logf("agent: final checkpoint: %v", err)
		}
		a.dur.closeWAL()
	}
	a.actions.Close()
	a.pm.close()
}

// drain waits for the queued and in-flight rule actions, bounded by the
// deadline. It reports whether everything finished in time.
func (a *Agent) drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		a.WaitActions()
		close(done)
	}()
	//ecavet:allow nowallclock shutdown drain deadline is operational, never replayed
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// Ready reports whether startup recovery has completed — watermarks
// seeded and, under durability, the journal replayed — so the delivery
// surface accepts notifications without blocking on it.
func (a *Agent) Ready() bool {
	select {
	case <-a.ready:
		return true
	default:
		return false
	}
}

// SetRoleFunc installs the cluster role provider the readiness probe
// consults (cluster nodes report "primary" / "standby"; nil reverts to
// standalone). The function must be safe for concurrent calls.
func (a *Agent) SetRoleFunc(fn func() string) {
	if fn == nil {
		a.roleFn.Store(nil)
		return
	}
	a.roleFn.Store(&fn)
}

// SetReadinessGate installs an extra readiness veto (nil removes it).
// When the gate returns ok=false, Readiness reports its state string and
// not-ready regardless of role — the hook the cluster layer uses to fail
// /readyz on a degraded or halted sync-replication link. The function
// must be safe for concurrent calls.
func (a *Agent) SetReadinessGate(fn func() (state string, ok bool)) {
	if fn == nil {
		a.gateFn.Store(nil)
		return
	}
	a.gateFn.Store(&fn)
}

// Readiness resolves the state string and verdict the /readyz probe
// serves: ("recovering", false) until startup recovery finishes, then any
// installed gate's veto (replication health), then the cluster role —
// ready only when this node is the one that should be ingesting
// ("primary", or "ok" standalone). A standby is alive but not ready:
// load balancers must hold its traffic until promotion flips the role.
func (a *Agent) Readiness() (state string, ready bool) {
	if !a.Ready() {
		return "recovering", false
	}
	if fn := a.gateFn.Load(); fn != nil {
		if state, ok := (*fn)(); !ok {
			return state, false
		}
	}
	if fn := a.roleFn.Load(); fn != nil {
		role := (*fn)()
		return role, role == "primary"
	}
	return "ok", true
}

// DeadLetters returns a snapshot of the dead-letter queue: rule actions
// that failed terminally (or exhausted their retries), oldest first, up to
// Config.DeadLetterLimit entries.
func (a *Agent) DeadLetters() []ActionResult {
	return a.dlq.snapshot()
}

// LED exposes the embedded local event detector (benchmarks and tests).
func (a *Agent) LED() *led.LED { return a.led }

// NotifyEndpoint returns the host and port the generated triggers send
// notifications to.
func (a *Agent) NotifyEndpoint() (string, int) {
	if a.cfg.NotifyHost != "" {
		return a.cfg.NotifyHost, a.cfg.NotifyPort
	}
	if a.notifier != nil {
		return a.notifier.addr()
	}
	return "127.0.0.1", 0
}

// Deliver injects one notification message, exactly as if it had arrived
// on the UDP socket — the entry point for in-process deployments and the
// UDP-vs-inproc ablation. Delivery is at-least-once: duplicates are
// suppressed by the per-event vNo watermark and gaps are replayed from it
// (see recovery.go).
func (a *Agent) Deliver(msg string) { a.DeliverBatchBytes([]byte(msg)) }

// FlushDeferred launches the held DEFERRED firings (transaction
// boundary), highest priority first; equal priorities keep detection
// order. It holds the tracker lock, so no checkpoint cuts between the held
// list's pop and the ledger claims of the actions.
func (a *Agent) FlushDeferred() {
	a.rec.mu.Lock()
	defer a.rec.mu.Unlock()
	held := a.rec.held
	a.rec.held = nil
	slices.SortStableFunc(held, func(x, y heldFiring) int { return cmp.Compare(y.info.Priority, x.info.Priority) })
	for _, f := range held {
		a.launch(f.info, f.occ)
	}
}

// WaitActions blocks until all in-flight rule actions complete.
func (a *Agent) WaitActions() { a.actionq.wg.Wait() }

// Events lists registered internal event names, sorted.
func (a *Agent) Events() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.events))
	for n := range a.events {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Triggers lists registered internal trigger names, sorted.
func (a *Agent) Triggers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.triggers))
	for n := range a.triggers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsECATrigger reports whether the (possibly unqualified) trigger name
// resolves to an ECA trigger for a session in (db, user).
func (a *Agent) IsECATrigger(db, user string, parts []string) bool {
	internal, err := expandName(db, user, parts)
	if err != nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.triggers[internal]
	return ok
}

// CreateTrigger processes a parsed ECA trigger definition for a session in
// (db, user): name expansion, validation, code generation, server
// installation, LED registration and persistence — the seven steps of
// Figure 3.
func (a *Agent) CreateTrigger(db, user string, def *TriggerDef) (messages []string, err error) {
	if db == "" || user == "" {
		return nil, fmt.Errorf("agent: no current database or user")
	}
	trigName, err := expandName(db, user, def.TriggerName)
	if err != nil {
		return nil, err
	}
	eventName, err := expandEventName(db, user, def.EventName)
	if err != nil {
		return nil, err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if _, exists := a.triggers[trigName]; exists {
		return nil, fmt.Errorf("agent: trigger %s already exists", trigName)
	}

	if err := a.pm.ensureDatabase(db); err != nil {
		return nil, err
	}

	switch {
	case len(def.TableName) > 0: // Figure 9: new primitive event
		return a.createPrimitive(db, user, trigName, eventName, def)
	case def.EventExpr != "": // Figure 12: new composite event
		return a.createComposite(db, user, trigName, eventName, def)
	default: // Figure 10: trigger on an existing event
		return a.createOnExisting(db, user, trigName, eventName, def)
	}
}

// createPrimitive implements Example 1 (§5.2). Caller holds a.mu.
func (a *Agent) createPrimitive(db, user, trigName, eventName string, def *TriggerDef) ([]string, error) {
	if _, exists := a.events[eventName]; exists {
		return nil, fmt.Errorf("agent: event %s already exists (define the trigger on the existing event instead)", eventName)
	}
	table, err := expandName(db, user, def.TableName)
	if err != nil {
		return nil, err
	}
	tdb, _, tobj, _ := splitInternal(table)
	if tdb != db {
		return nil, fmt.Errorf("agent: event table %s must be in the current database %s", table, db)
	}
	slot := strings.ToLower(db + "|" + tobj + "|" + string(def.Operation))
	if owner, taken := a.nativeByTableOp[slot]; taken {
		return nil, fmt.Errorf("agent: event %s already monitors %s for %s (the native server allows one trigger per table and operation; reuse that event)",
			owner, tobj, def.Operation)
	}

	// Install the Figure 11 artifacts.
	host, port := a.NotifyEndpoint()
	batches := genPrimitiveEvent(eventName, table, def.Operation, host, port)
	useDB := "use " + db + "\n"
	if err := execIgnoreExists(a.pm.up, prefixAll(useDB, batches[:len(batches)-1])); err != nil {
		return nil, err
	}
	if _, err := a.pm.exec(useDB + batches[len(batches)-1]); err != nil {
		return nil, err
	}

	if err := a.led.DefinePrimitive(eventName); err != nil {
		return nil, err
	}
	if err := a.pm.savePrimitive(db, user, eventName, table, string(def.Operation)); err != nil {
		return nil, err
	}
	a.events[eventName] = &eventInfo{
		Name: eventName, DB: db, User: user, Primitive: true, Table: table, Op: def.Operation,
	}
	a.nativeByTableOp[slot] = eventName
	// Start the delivery watermark at the freshly persisted vNo of 0.
	a.trackEvent(eventName, table, string(def.Operation), 0)

	msgs, err := a.installRule(db, user, trigName, eventName, def)
	if err != nil {
		return msgs, err
	}
	return append([]string{fmt.Sprintf("primitive event %s created on %s for %s", eventName, table, def.Operation)}, msgs...), nil
}

// createComposite implements Example 2 (§5.3). Caller holds a.mu.
func (a *Agent) createComposite(db, user, trigName, eventName string, def *TriggerDef) ([]string, error) {
	if _, exists := a.events[eventName]; exists {
		return nil, fmt.Errorf("agent: event %s already exists", eventName)
	}
	expr, err := snoop.Parse(def.EventExpr)
	if err != nil {
		return nil, err
	}
	expanded, err := a.expandExprLocked(db, user, expr)
	if err != nil {
		return nil, err
	}
	if err := a.led.DefineComposite(eventName, expanded); err != nil {
		return nil, err
	}
	if err := a.pm.saveComposite(db, user, eventName, expanded.String(), def.Coupling, def.Context, def.Priority); err != nil {
		return nil, err
	}
	a.events[eventName] = &eventInfo{
		Name: eventName, DB: db, User: user, Expr: expanded.String(),
	}
	msgs, err := a.installRule(db, user, trigName, eventName, def)
	if err != nil {
		return msgs, err
	}
	return append([]string{fmt.Sprintf("composite event %s = %s created", eventName, expanded)}, msgs...), nil
}

// createOnExisting implements Figure 10. Caller holds a.mu.
func (a *Agent) createOnExisting(db, user, trigName, eventName string, def *TriggerDef) ([]string, error) {
	if _, ok := a.events[eventName]; !ok {
		return nil, fmt.Errorf("agent: event %s is not defined", eventName)
	}
	return a.installRule(db, user, trigName, eventName, def)
}

// expandExprLocked rewrites every event reference in a Snoop expression to
// its internal name and verifies it is defined.
func (a *Agent) expandExprLocked(db, user string, expr snoop.Expr) (snoop.Expr, error) {
	var walkErr error
	snoop.Walk(expr, func(e snoop.Expr) {
		ref, ok := e.(*snoop.EventRef)
		if !ok || walkErr != nil {
			return
		}
		internal, err := expandEventName(db, user, ref.Name)
		if err != nil {
			walkErr = err
			return
		}
		if _, defined := a.events[internal]; !defined {
			walkErr = fmt.Errorf("agent: event %s is not defined", ref.Name)
			return
		}
		ref.Name = internal
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return expr, nil
}

// installRule generates the action procedure (Figure 14), installs it, and
// attaches the LED rule whose action invokes it via the Action Handler.
// Caller holds a.mu.
func (a *Agent) installRule(db, user, trigName, eventName string, def *TriggerDef) ([]string, error) {
	action, shadows, err := rewriteAction(db, user, def.ActionSQL)
	if err != nil {
		return nil, err
	}
	for _, sr := range shadows {
		sdb, _, _, _ := splitInternal(sr.Table)
		if sdb != db {
			return nil, fmt.Errorf("agent: context table %s is outside the current database", sr.Table)
		}
	}
	procName := actionProcName(trigName)
	useDB := "use " + db + "\n"
	if err := execIgnoreExists(a.pm.up, prefixAll(useDB, genTmpTables(shadows))); err != nil {
		return nil, err
	}
	if _, err := a.pm.exec(useDB + genActionProc(procName, def.Context.String(), action, shadows)); err != nil {
		return nil, err
	}

	info := &triggerInfo{
		Name: trigName, DB: db, User: user, Event: eventName, Proc: procName,
		Coupling: def.Coupling, Context: def.Context, Priority: def.Priority,
	}
	if err := a.addLEDRule(info); err != nil {
		// Roll the procedure back so a retry is possible.
		_, _ = a.pm.exec(useDB + "drop procedure " + procName)
		return nil, err
	}
	if err := a.pm.saveTrigger(db, user, trigName, procName, eventName, def.Coupling, def.Context, def.Priority); err != nil {
		return nil, err
	}
	a.triggers[trigName] = info
	return []string{fmt.Sprintf("trigger %s created on event %s (%s, %s, priority %d)",
		trigName, eventName, info.Coupling, info.Context, info.Priority)}, nil
}

// addLEDRule wires a trigger's rule into the LED. Its action holds a
// DEFERRED firing for the next FlushDeferred and launches any other at
// once. Every detection runs under the tracker lock, which guards the held
// list.
func (a *Agent) addLEDRule(info *triggerInfo) error {
	return a.led.AddRule(&led.Rule{
		Name:     info.Name,
		Event:    info.Event,
		Context:  info.Context,
		Coupling: info.Coupling,
		Priority: info.Priority,
		Action: func(occ *led.Occ) {
			if info.Coupling == led.Deferred {
				a.rec.held = append(a.rec.held, heldFiring{info: info, occ: occ})
				return
			}
			a.launch(info, occ)
		},
	})
}

// launch is the SybaseAction analog: it claims a firing in the action
// ledger and queues a call that materializes the context and executes the
// stored procedure (Figure 16). Caller holds a.rec.mu.
func (a *Agent) launch(info *triggerInfo, occ *led.Occ) {
	key := ""
	if d := a.dur; d != nil {
		key = actionKey(info.Name, occ)
		if d.replaying.Load() {
			// Journal replay: collect the firing; resumePending executes
			// whatever no done record covers.
			d.notePending(info.Name, key, occ)
			return
		}
		// Claim the key before the hand-off to the action worker. The
		// detection or flush that launched this runs under the tracker
		// lock, which a checkpoint takes first, so every cut sees the
		// firing either held, undetected or in the ledger.
		if !d.begin(info.Name, key, occ) {
			d.met.deduped.Inc()
			return
		}
	}
	a.actionq.enqueue(actionJob{info: info, occ: occ, enqueued: a.clock.Now(), key: key})
}

// DropTrigger removes an ECA trigger: the LED rule, the stored procedure,
// and the SysEcaTrigger row. Events persist and stay reusable, matching
// the paper (contribution 3 drops triggers, not events).
func (a *Agent) DropTrigger(db, user string, parts []string) ([]string, error) {
	internal, err := expandName(db, user, parts)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	info, ok := a.triggers[internal]
	if !ok {
		return nil, fmt.Errorf("agent: trigger %s does not exist", internal)
	}
	a.rec.mu.Lock()
	err = a.led.DropRule(internal)
	if err == nil {
		a.rec.held = slices.DeleteFunc(a.rec.held, func(f heldFiring) bool { return f.info == info })
	}
	a.rec.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if _, err := a.pm.exec("use " + info.DB + "\ndrop procedure " + info.Proc); err != nil {
		a.cfg.Logf("agent: dropping procedure %s: %v", info.Proc, err)
	}
	if err := a.pm.deleteTrigger(info.DB, internal); err != nil {
		return nil, err
	}
	delete(a.triggers, internal)
	return []string{fmt.Sprintf("trigger %s dropped", internal)}, nil
}

// recover restores events and rules from the system tables (Figure 8's
// "On ECA Agent starting or recovery" path).
func (a *Agent) recover() error {
	prims, vnos, comps, trigs, err := a.pm.loadAll()
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	host, port := a.NotifyEndpoint()
	for i, info := range prims {
		if err := a.led.DefinePrimitive(info.Name); err != nil {
			return fmt.Errorf("agent: recovery: %w", err)
		}
		a.events[info.Name] = info
		op := string(info.Op)
		_, _, tobj, err := splitInternal(info.Table)
		if err == nil {
			a.nativeByTableOp[strings.ToLower(info.DB+"|"+tobj+"|"+op)] = info.Name
		}
		// Adopt the authoritative vNo as the delivery watermark: the LED
		// state that pre-restart occurrences fed is gone, so they are not
		// replayed — at-least-once holds from this point forward.
		a.trackEvent(info.Name, info.Table, op, vnos[i])
		// The persisted native trigger embeds the *previous* agent
		// instance's notification endpoint; regenerate it with ours (the
		// server's silent trigger overwrite makes this a clean replace).
		batches := genPrimitiveEvent(info.Name, info.Table, info.Op, host, port)
		if _, err := a.pm.exec("use " + info.DB + "\n" + batches[len(batches)-1]); err != nil {
			return fmt.Errorf("agent: recovery: rebinding trigger for %s: %w", info.Name, err)
		}
	}
	for _, info := range comps {
		expr, err := snoop.Parse(info.Expr)
		if err != nil {
			return fmt.Errorf("agent: recovery: composite %s: %w", info.Name, err)
		}
		if err := a.led.DefineComposite(info.Name, expr); err != nil {
			return fmt.Errorf("agent: recovery: %w", err)
		}
		a.events[info.Name] = info
	}
	for _, info := range trigs {
		if err := a.addLEDRule(info); err != nil {
			return fmt.Errorf("agent: recovery: rule %s: %w", info.Name, err)
		}
		a.triggers[info.Name] = info
	}
	return nil
}

func prefixAll(prefix string, batches []string) []string {
	out := make([]string, len(batches))
	for i, b := range batches {
		out[i] = prefix + b
	}
	return out
}
