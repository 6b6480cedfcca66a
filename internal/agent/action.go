package agent

import (
	"strconv"
	"sync"
	"sync/atomic"
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

// scriptWriter builds the §5.6 script for one occurrence: populate
// sysContext with the occurrence's (shadow table, context, vNo) tuples,
// then execute the action procedure. It keeps its buffer and its
// duplicate set from script to script, so the action worker that owns it
// pays one allocation per script: the script's string.
type scriptWriter struct {
	buf  []byte
	seen map[contextRow]struct{}
}

// contextRow is one sysContext tuple: the shadow table of base table
// table and suffix (inserted or deleted), at vno.
type contextRow struct {
	table, suffix string
	vno           int
}

func (w *scriptWriter) script(p ActionParam, occ *led.Occ) string {
	ctx := p.Context.String()
	b := append(w.buf[:0], "use "...)
	b = append(b, p.DB...)

	// Steps 2-3 of §5.6: replace the context's tuples with this
	// occurrence's (tableName, context, vNo) list, derived from the LED
	// occurrence. The context is cleared whole, so an action never reads a
	// table the previous occurrence left behind (an OR that fired on the
	// other table, or a temporal occurrence with no table at all).
	// sysContext rows are keyed by the *shadow* table (stock_inserted /
	// stock_deleted) rather than the base table the paper's Figure 14
	// shows: each event keeps its own vNo counter, so rows keyed only by
	// base table would cross-match occurrences of different events on the
	// same table. EXPERIMENTS.md records this correctness fix.
	b = append(b, "\ndelete "+TabContext+" where context = '"...)
	b = append(b, ctx...)
	b = append(b, "'\n"...)
	if w.seen == nil {
		w.seen = make(map[contextRow]struct{})
	}
	clear(w.seen)
	record := func(table, suffix string, vno int) {
		k := contextRow{table, suffix, vno}
		if _, dup := w.seen[k]; dup {
			return
		}
		w.seen[k] = struct{}{}
		b = append(b, "insert "+TabContext+" values ('"...)
		b = append(b, sqlEscape(table)...) // then "_"+suffix: shadowTableName's text, escaped
		b = append(b, '_')
		b = append(b, suffix...)
		b = append(b, "', '"...)
		b = append(b, ctx...)
		b = append(b, "', "...)
		b = strconv.AppendInt(b, int64(vno), 10)
		b = append(b, ")\n"...)
	}
	for _, c := range occ.Constituents {
		if c.Table == "" {
			continue // temporal/tick constituents carry no tuples
		}
		switch c.Op {
		case "insert":
			record(c.Table, "inserted", c.VNo)
		case "delete":
			record(c.Table, "deleted", c.VNo)
		case "update":
			record(c.Table, "inserted", c.VNo)
			record(c.Table, "deleted", c.VNo)
		}
	}
	// Step 4: the procedure joins sysContext with the shadow tables and
	// runs the user action.
	b = append(b, "execute "...)
	b = append(b, p.StoreProc...)
	w.buf = b
	return string(b)
}

// messages collects the informational messages of a response in order.
func messages(results []*sqltypes.ResultSet) []string {
	var msgs []string
	for _, rs := range results {
		msgs = append(msgs, rs.Messages...)
	}
	return msgs
}

// actionJob is one rule firing queued for, or running on, the action worker.
type actionJob struct {
	info     *triggerInfo
	occ      *led.Occ
	enqueued time.Time // when detection fired the rule: latency spans queue wait + execution
	key      string    // durable ledger key ("" when durability is off)
}

// actionQueue runs rule actions in enqueue order — detection (priority)
// order — on one worker, which serializes the sysContext populate +
// execute pairs (§5.6). It is an unbounded FIFO drained by one worker
// goroutine: started by the first enqueue, parked on wake while the queue
// is empty (a parked worker hands off measurably faster than a goroutine
// spawned per burst), and gone after stop once the queue is empty. Each
// time it wakes it hands the whole backlog to run as one group; run
// releases every job from the barrier once, through settle for a job it
// finishes. An enqueue that finds no
// worker starts one, so a firing after Close still runs — failing fast
// into the dead-letter queue against the closed upstream — instead of
// hanging.
type actionQueue struct {
	run     func(group []actionJob)
	wg      sync.WaitGroup // queued + running jobs: the barrier of WaitActions and Close
	pending atomic.Int32   // what wg counts, readable (add changes both)

	mu   sync.Mutex
	wake sync.Cond // on mu: jobs arrived, or stopped was set
	// jobs is the backlog; spare is the last drained batch's backing array,
	// swapped back in so a steady backlog allocates nothing.
	jobs, spare []actionJob // guarded by mu
	working     bool        // a worker goroutine is live; guarded by mu
	stopped     bool        // the worker exits rather than parks; guarded by mu
}

func newActionQueue(run func([]actionJob)) *actionQueue {
	q := &actionQueue{run: run}
	q.wake.L = &q.mu
	return q
}

// add moves the barrier and the pending count together.
func (q *actionQueue) add(n int) {
	q.wg.Add(n)
	q.pending.Add(int32(n))
}

func (q *actionQueue) enqueue(j actionJob) {
	q.add(1)
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

// work is the worker: it takes the whole backlog, runs it as one group
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
		q.run(batch)
		clear(batch) // do not pin the occurrences
		q.mu.Lock()
		q.spare = batch
	}
}

// settle ends one job: step runs behind the job's own crash shield, and
// the barrier is released however it ends. A simulated crash stops that
// job where a dead process's would; the worker moves on.
func (q *actionQueue) settle(step func()) {
	defer faults.Recover()
	defer q.add(-1)
	step()
}

// runActions is the action queue's run: it executes a drained backlog
// (the SybaseAction call of Figure 16) as one pipelined group, or, under
// durability, as groups of one, so a power cut re-executes at most the
// one action in flight (DESIGN.md §8).
func (a *Agent) runActions(jobs []actionJob) {
	size := len(jobs)
	if a.dur != nil {
		size = 1
	}
	for len(jobs) > 0 {
		n := min(size, len(jobs))
		a.runGroup(jobs[:n])
		jobs = jobs[n:]
	}
}

// runGroup sends the group's scripts together over the action connection
// and finishes each job, in order, as its reply arrives: Figure 16, where
// each detected occurrence invokes the rule's stored procedure in the
// server. One connection runs every group, in order: the paper shares one
// sysContext table per database, so two materializations of one context
// at once would trample each other.
func (a *Agent) runGroup(group []actionJob) {
	scripts := make([]string, len(group))
	for i, j := range group {
		if d := a.dur; d != nil && !survives(func() { d.crash.Hit("action.preExec") }) {
			// Nothing of the group has been sent: it stops where a dead
			// process's would.
			a.actionq.add(-len(group))
			return
		}
		scripts[i] = a.scripts.script(j.param(), j.occ)
	}
	a.actions.ExecGroup(scripts, func(i int, results []*sqltypes.ResultSet, err error) {
		a.actionq.settle(func() { a.finishAction(group[i], results, err) })
	})
}

// survives runs step and reports false if a simulated crash stopped it.
func survives(step func()) (ok bool) {
	defer faults.Recover()
	step()
	return true
}

func (j actionJob) param() ActionParam {
	return ActionParam{StoreProc: j.info.Proc, EventName: j.info.Event, Context: j.info.Context, DB: j.info.DB}
}

// finishAction journals, counts and reports one executed rule action.
func (a *Agent) finishAction(j actionJob, results []*sqltypes.ResultSet, err error) {
	rule := j.info.Name
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
	res := ActionResult{Rule: rule, Event: j.occ.Event, Occ: j.occ, Messages: messages(results), Results: results, Err: err}
	if err != nil {
		a.met.actionsFailed.Inc()
		a.met.ruleFails.With(rule).Inc()
		a.cfg.Logf("agent: action %s on %s failed: %v", j.info.Proc, j.info.Event, err)
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
