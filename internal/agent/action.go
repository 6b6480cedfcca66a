package agent

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// ActionParam is the Go analog of the paper's NotiStr structure
// (Figure 13): everything the action interface needs to invoke a rule's
// stored procedure in the SQL server when the LED detects its event.
type ActionParam struct {
	StoreProc string      // stored procedure to execute
	EventName string      // detected event
	Context   led.Context // parameter context to materialize
	DB        string      // database holding the procedure and sysContext
}

// ActionResult reports one completed rule action; the agent publishes
// these on its ActionDone channel so applications (and tests) can observe
// asynchronous rule executions.
type ActionResult struct {
	Rule     string
	Event    string
	Occ      *led.Occ
	Messages []string
	Results  []*sqltypes.ResultSet
	Err      error
}

// actionHandler implements Figure 16: each detected occurrence invokes the
// rule's stored procedure through its own upstream connection. sysContext
// population and procedure execution are serialized (the paper shares one
// sysContext table per database, so two concurrent materializations of the
// same (table, context) pair would trample each other).
type actionHandler struct {
	up Upstream
}

// newActionHandler takes ownership of an already-built upstream; the agent
// hands it a retry-wrapped connection so a broken connection is redialed
// instead of disabling every rule action.
func newActionHandler(up Upstream) *actionHandler {
	return &actionHandler{up: up}
}

func (h *actionHandler) close() { h.up.Close() }

// invoke materializes the occurrence's parameter context into sysContext
// (§5.6's four steps) and executes the action procedure. It returns the
// informational messages the action produced.
//
// The only caller is Agent.runAction on the action queue's single worker,
// which makes the populate + execute pair atomic with respect to other
// actions.
func (h *actionHandler) invoke(p ActionParam, occ *led.Occ) ([]*sqltypes.ResultSet, []string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "use %s\n", p.DB)

	// Steps 2-3 of §5.6: derive the (tableName, context, vNo) list from
	// the LED occurrence and replace the previous occurrence's tuples.
	// sysContext rows are keyed by the *shadow* table (stock_inserted /
	// stock_deleted) rather than the base table the paper's Figure 14
	// shows: each event keeps its own vNo counter, so rows keyed only by
	// base table would cross-match occurrences of different events on the
	// same table. EXPERIMENTS.md records this correctness fix.
	type key struct {
		table string
		vno   int
	}
	seen := make(map[key]bool)
	tableSeen := make(map[string]bool)
	var tables []string // first-seen order: the batch must be deterministic
	var inserts []string
	record := func(shadow string, vno int) {
		k := key{table: shadow, vno: vno}
		if seen[k] {
			return
		}
		seen[k] = true
		if !tableSeen[shadow] {
			tableSeen[shadow] = true
			tables = append(tables, shadow)
		}
		inserts = append(inserts, fmt.Sprintf("insert %s values ('%s', '%s', %d)",
			TabContext, sqlEscape(shadow), p.Context, vno))
	}
	for _, c := range occ.Constituents {
		if c.Table == "" {
			continue // temporal/tick constituents carry no tuples
		}
		switch c.Op {
		case "insert":
			record(shadowTableName(c.Table, "inserted"), c.VNo)
		case "delete":
			record(shadowTableName(c.Table, "deleted"), c.VNo)
		case "update":
			record(shadowTableName(c.Table, "inserted"), c.VNo)
			record(shadowTableName(c.Table, "deleted"), c.VNo)
		}
	}
	for _, t := range tables {
		fmt.Fprintf(&b, "delete %s where tableName = '%s' and context = '%s'\n",
			TabContext, sqlEscape(t), p.Context)
	}
	for _, ins := range inserts {
		b.WriteString(ins)
		b.WriteByte('\n')
	}
	// Step 4: the procedure joins sysContext with the shadow tables and
	// runs the user action.
	fmt.Fprintf(&b, "execute %s", p.StoreProc)

	results, err := h.up.Exec(b.String())
	var msgs []string
	for _, rs := range results {
		msgs = append(msgs, rs.Messages...)
	}
	return results, msgs, err
}

// actionJob is one rule firing queued for, or running on, the action worker.
type actionJob struct {
	info     *triggerInfo
	occ      *led.Occ
	enqueued time.Time // when detection fired the rule: latency spans queue wait + execution
	key      string    // durable ledger key ("" when durability is off)
}

// actionQueue runs rule actions one at a time in enqueue order — detection
// (priority) order — which serializes the sysContext populate + execute
// pairs (§5.6). It is an unbounded FIFO drained by one worker goroutine:
// started by the first enqueue, parked on wake while the queue is empty
// (a parked worker hands off measurably faster than a goroutine spawned
// per burst), and gone after stop once the queue is empty. An enqueue
// that finds no worker starts one, so a firing after Close still runs —
// failing fast into the dead-letter queue against the closed upstream —
// instead of hanging.
type actionQueue struct {
	run func(actionJob)
	wg  sync.WaitGroup // queued + running jobs: the barrier of WaitActions and Close

	mu   sync.Mutex
	wake sync.Cond // on mu: jobs arrived, or stopped was set
	// jobs is the backlog; spare is the last drained batch's backing array,
	// swapped back in so a steady backlog allocates nothing.
	jobs, spare []actionJob // guarded by mu
	working     bool        // a worker goroutine is live; guarded by mu
	stopped     bool        // the worker exits rather than parks; guarded by mu
}

func newActionQueue(run func(actionJob)) *actionQueue {
	q := &actionQueue{run: run}
	q.wake.L = &q.mu
	return q
}

func (q *actionQueue) enqueue(j actionJob) {
	q.wg.Add(1)
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	start := !q.working
	q.working = true
	q.mu.Unlock()
	if start {
		go q.work()
	} else {
		q.wake.Signal()
	}
}

// stop lets the worker exit once it has emptied the queue.
func (q *actionQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.wake.Signal()
}

// work is the worker: it takes the whole backlog, runs it in order
// outside the lock, and parks when it comes back to an empty queue.
func (q *actionQueue) work() {
	q.mu.Lock()
	for {
		for len(q.jobs) == 0 {
			if q.stopped {
				q.working = false
				q.mu.Unlock()
				return
			}
			q.wake.Wait()
		}
		batch := q.jobs
		q.jobs = q.spare[:0]
		q.mu.Unlock()
		for i := range batch {
			q.runOne(batch[i])
			batch[i] = actionJob{} // do not pin the occurrence
		}
		q.mu.Lock()
		q.spare = batch
	}
}

// runOne keeps a simulated crash inside one job: that job stops where a dead
// process's would, the barrier is still released, the worker moves on.
func (q *actionQueue) runOne(j actionJob) {
	defer faults.Recover()
	defer q.wg.Done()
	q.run(j)
}

// runAction executes one rule action on the action worker (the
// SybaseAction call of Figure 16).
func (a *Agent) runAction(j actionJob) {
	rule := j.info.Name
	p := ActionParam{StoreProc: j.info.Proc, EventName: j.info.Event, Context: j.info.Context, DB: j.info.DB}
	if d := a.dur; d != nil {
		d.crash.Hit("action.preExec")
	}
	results, msgs, err := a.actions.invoke(p, j.occ)
	if d := a.dur; d != nil && j.key != "" {
		// Journal completion before anything acknowledges it. Failures
		// count too: the upstream already retried, what reaches here is
		// terminal and dead-lettered, not re-runnable by a restart.
		d.markDone(j.key)
		d.crash.Hit("action.postDone")
	}
	a.met.actionsRun.Inc()
	a.met.ruleRuns.With(rule).Inc()
	a.met.actionSec.Observe(a.clock.Now().Sub(j.enqueued).Seconds())
	res := ActionResult{Rule: rule, Event: j.occ.Event, Occ: j.occ, Messages: msgs, Results: results, Err: err}
	if err != nil {
		a.met.actionsFailed.Inc()
		a.met.ruleFails.With(rule).Inc()
		a.cfg.Logf("agent: action %s on %s failed: %v", p.StoreProc, p.EventName, err)
		// The upstream already retried transient failures; what reaches
		// here is terminal, so park it for inspection or manual replay.
		a.met.deadLettered.Inc()
		a.dlq.push(res)
	}
	select {
	case a.ActionDone <- res:
		a.reportDropLogged.Store(false)
	default:
		// Observational channel full — drop the report, but never
		// silently: count it, and log once per overflow episode.
		a.met.reportsDropped.Inc()
		if a.reportDropLogged.CompareAndSwap(false, true) {
			a.cfg.Logf("agent: ActionDone buffer full; dropping completed-action reports (see Stats.ActionReportsDropped)")
		}
	}
}

// deadLetterQueue is the bounded park for rule actions that failed
// terminally: the upstream's retries were exhausted, or the server
// answered with an error. When full, the oldest entry is evicted — recent
// failures are worth more to an operator than ancient ones.
type deadLetterQueue struct {
	mu    sync.Mutex
	buf   []ActionResult
	limit int
}

func (q *deadLetterQueue) push(res ActionResult) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.limit <= 0 {
		return
	}
	if len(q.buf) >= q.limit {
		q.buf = append(q.buf[:0], q.buf[len(q.buf)-q.limit+1:]...)
	}
	q.buf = append(q.buf, res)
}

func (q *deadLetterQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// snapshot copies the queue, oldest first.
func (q *deadLetterQueue) snapshot() []ActionResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]ActionResult(nil), q.buf...)
}
