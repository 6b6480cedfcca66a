package agent

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// The crash-differential harness: for every Snoop operator under every
// parameter context, the same workload is driven twice — once against a
// crash-free oracle agent, once against a subject agent that is killed at
// a named crash point mid-run, loses every unsynced write
// (faults.CrashDir), and restarts over the surviving files. The recovered
// subject must produce exactly the oracle's occurrence set and exactly
// the oracle's rule-action execution multiset: occurrences are neither
// lost nor detected twice, and no action runs zero times or twice.

// cdClockBase anchors both runs' ManualClocks so temporal deadlines and
// occurrence timestamps are identical across oracle and subject.
var cdClockBase = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// actionRecorder captures rule-action executions at the upstream Exec
// level — the closest observable point to the server running the action
// procedure, which is what exactly-once is about. The recorded batch
// embeds the constituent vNos (context-table population), so the string
// identifies the precise occurrence the action ran for.
type actionRecorder struct {
	mu      sync.Mutex
	batches []string
}

func isActionBatch(b string) bool {
	for _, line := range strings.Split(b, "\n") {
		if strings.HasPrefix(line, "execute ") {
			return true
		}
	}
	return false
}

func (r *actionRecorder) record(batch string) {
	if !isActionBatch(batch) {
		return
	}
	r.mu.Lock()
	r.batches = append(r.batches, batch)
	r.mu.Unlock()
}

func (r *actionRecorder) snapshot() []string {
	r.mu.Lock()
	out := append([]string(nil), r.batches...)
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

type recordingUpstream struct {
	up  Upstream
	rec *actionRecorder
}

func (u recordingUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	rs, err := u.up.Exec(sql)
	if err == nil {
		u.rec.record(sql)
	}
	return rs, err
}

func (u recordingUpstream) Close() error { return u.up.Close() }

// recordingDialer wraps the in-process dialer so every successful Exec is
// observable; only action batches are kept.
func recordingDialer(eng *engine.Engine, rec *actionRecorder) UpstreamDialer {
	inner := LocalDialer(eng)
	return func(user, db string) (Upstream, error) {
		up, err := inner(user, db)
		if err != nil {
			return nil, err
		}
		return recordingUpstream{up: up, rec: rec}, nil
	}
}

// occRecorder collects the set of primitive occurrences the LED processed
// (Config.Forward). Journal replay re-forwards records, so the stream is
// compared as a set keyed by (event, vNo): recovery must neither lose an
// occurrence nor invent one.
type occRecorder struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (r *occRecorder) add(p led.Primitive) {
	r.mu.Lock()
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	r.seen[fmt.Sprintf("%s|%d", p.Event, p.VNo)] = true
	r.mu.Unlock()
}

func (r *occRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.seen))
	for k := range r.seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cdStep is one workload step: advance the logical clock, insert into a
// monitored table, or cut an explicit checkpoint.
type cdStep struct {
	advance time.Duration
	insert  string
	ckpt    bool
}

// cdScript interleaves constituent inserts of every operator with clock
// advances (driving P/P*/PLUS/temporal timers) and two mid-run
// checkpoints, so a crash can land before, between, and after cuts.
var cdScript = []cdStep{
	{advance: time.Second, insert: "ta"},
	{advance: time.Second, insert: "tb"},
	{ckpt: true},
	{advance: time.Second, insert: "tc"},
	{advance: time.Second, insert: "ta"},
	{insert: "tb"},
	{advance: 2 * time.Second, insert: "tc"},
	{ckpt: true},
	{advance: time.Second, insert: "ta"},
	{insert: "tb"},
	{insert: "tc"},
	{advance: 5 * time.Second},
}

// cdOperators covers every Snoop operator (the temporal case is the bare
// absolute-time event, 7s past the clock base, crossed mid-script).
var cdOperators = []struct{ name, expr string }{
	{"or", "ea | eb"},
	{"and", "ea ^ eb"},
	{"seq", "ea ; eb"},
	// not: eb terminates with ec2 forbidden — the reverse ordering never
	// fires under cdScript (every ea..ec2 span contains an eb).
	{"not", "not(ea, ec2, eb)"},
	{"aperiodic", "A(ea, eb, ec2)"},
	{"aperiodic-star", "A*(ea, eb, ec2)"},
	{"periodic", "P(ea, [2 sec], ec2)"},
	{"periodic-star", "P*(ea, [2 sec], ec2)"},
	{"plus", "ea plus [3 sec]"},
	{"temporal", "[2030-01-01 00:00:07]"},
	// CEP cells (ISSUE 8): the ring + armed-boundary state must survive
	// every crash point, and the aggregate thresholds must round-trip
	// through the catalog's expression string on recovery.
	{"window", "window(ea, [3 sec])"},
	{"window-slide", "window(ea | eb, [4 sec], slide [2 sec])"},
	{"agg-count", "agg(count, vno, ea | eb, [3 sec]) >= 2"},
	{"agg-max", "agg(max, vno, ea | eb, [4 sec], slide [2 sec]) != -1"},
	{"during", "(eb ; ec2) during (ea ; ea)"},
	{"overlaps", "(ea ; ec2) overlaps (eb ; eb)"},
}

var cdContexts = []string{"RECENT", "CHRONICLE", "CONTINUOUS", "CUMULATIVE"}

// cdCrashes are the armed crash points. The nth counts include hits from
// the initial recovery checkpoint New cuts (epoch 1), so ckpt.* with
// nth=2 trips at the first in-script checkpoint.
var cdCrashes = []struct {
	point string
	nth   int
}{
	{"ingest.preWAL", 2},
	{"ingest.postWAL", 4},
	{"action.preExec", 3},
	{"action.postDone", 2},
	{"ckpt.beforeRename", 2},
	{"ckpt.afterRename", 2},
	{"ckpt.begin", 3},
}

// cdRun is one agent lifetime-spanning run: the engine, recorders, and
// durable directory survive agent restarts; the clock is re-created at
// the crash instant (a dead process's pending timers die with it — the
// restored ones re-arm on the new clock at their original deadlines).
type cdRun struct {
	t      *testing.T
	eng    *engine.Engine
	fs     *faults.CrashDir
	acts   *actionRecorder
	occs   *occRecorder
	clock  *led.ManualClock
	agent  *Agent
	crash  *faults.CrashSet
	driver *engine.Session
}

func newCDRun(t *testing.T, seed int64, crash *faults.CrashSet) *cdRun {
	t.Helper()
	r := &cdRun{
		t:     t,
		eng:   engine.New(catalog.New()),
		fs:    faults.NewCrashDir(seed),
		acts:  &actionRecorder{},
		occs:  &occRecorder{},
		clock: led.NewManualClock(cdClockBase),
		crash: crash,
	}
	seed0 := r.eng.NewSession("sharma")
	if _, err := seed0.ExecScript(`create database crashdb
use crashdb
create table ta (x int null)
create table tb (x int null)
create table tc (x int null)`); err != nil {
		t.Fatal(err)
	}
	r.startAgent(crash)
	return r
}

// startAgent boots one agent incarnation over the surviving durable
// directory and rebinds the engine's notifier to it.
func (r *cdRun) startAgent(crash *faults.CrashSet) {
	r.t.Helper()
	a, err := New(Config{
		Dial:       recordingDialer(r.eng, r.acts),
		NotifyAddr: "-",
		Clock:      r.clock,
		Forward:    r.occs.add,
		Logf:       func(string, ...any) {},
		Durability: &Durability{FS: r.fs, WALSync: WALSyncAlways, Crash: crash},
	})
	if err != nil {
		r.t.Fatalf("starting agent: %v", err)
	}
	r.agent = a
	a2 := a
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		a2.Deliver(msg)
		return nil
	})
	r.driver = r.eng.NewSession("sharma")
	if err := r.driver.Use("crashdb"); err != nil {
		r.t.Fatal(err)
	}
}

// setup installs the per-cell triggers: three primitive events and the
// composite under test.
func (r *cdRun) setup(expr, ctx string) {
	r.t.Helper()
	cs, err := r.agent.NewClientSession("sharma", "crashdb")
	if err != nil {
		r.t.Fatal(err)
	}
	defer cs.Close()
	for _, ddl := range []string{
		"create trigger cd_pa on ta for insert event ea as print 'pa'",
		"create trigger cd_pb on tb for insert event eb as print 'pb'",
		"create trigger cd_pc on tc for insert event ec2 as print 'pc'",
		fmt.Sprintf("create trigger cd_comp event comp = %s %s as print 'comp'", expr, ctx),
	} {
		if _, err := cs.Exec(ddl); err != nil {
			r.t.Fatalf("setup %q: %v", ddl, err)
		}
	}
}

// step executes one workload step, swallowing a simulated-crash panic
// that unwinds out of the delivery or checkpoint path.
func (r *cdRun) step(s cdStep) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := faults.IsCrash(rec); !ok {
				panic(rec)
			}
		}
	}()
	if s.advance > 0 {
		r.clock.Advance(s.advance)
	}
	if s.insert != "" {
		if _, err := r.driver.ExecScript("insert " + s.insert + " values (1)"); err != nil {
			r.t.Errorf("insert %s: %v", s.insert, err)
		}
	}
	if s.ckpt {
		if err := r.agent.Checkpoint(); err != nil {
			r.t.Errorf("checkpoint: %v", err)
		}
	}
}

// restart models the machine coming back: in-flight work quiesces (every
// completion it produced before the power cut is pre-crash history), the
// directory drops all unsynced writes, and a fresh incarnation recovers
// over the survivors. The dead incarnation is abandoned, not closed — a
// dead process runs no shutdown path; its clock (and thus its pending
// timer callbacks) is never advanced again.
func (r *cdRun) restart() {
	r.t.Helper()
	r.agent.WaitActions()
	r.fs.Crash()
	r.fs.Restart()
	r.clock = led.NewManualClock(r.clock.Now())
	r.startAgent(nil)
}

// run drives the full script, restarting once if the armed crash point
// trips, and returns with all actions drained.
func (r *cdRun) run() {
	restarted := false
	for _, s := range cdScript {
		r.step(s)
		// Quiesce after every step so spawned action goroutines reach
		// their crash points before the next step — otherwise whether the
		// simulated power cut lands inside this step or several steps
		// later would be a scheduling accident, not a test parameter.
		r.agent.WaitActions()
		if !restarted && r.crash.Tripped() != "" {
			r.restart()
			restarted = true
		}
	}
	r.agent.WaitActions()
}

func TestCrashDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("crash differential matrix is long")
	}
	cell := 0
	for _, op := range cdOperators {
		for _, ctx := range cdContexts {
			op, ctx, cell := op, ctx, cell
			t.Run(op.name+"/"+ctx, func(t *testing.T) {
				t.Parallel()
				oracle := newCDRun(t, 1, nil)
				oracle.setup(op.expr, ctx)
				oracle.run()
				wantActs := oracle.acts.snapshot()
				wantOccs := oracle.occs.snapshot()
				oracle.agent.Close()

				for i := 0; i < 3; i++ {
					spec := cdCrashes[(cell+i)%len(cdCrashes)]
					crash := faults.NewCrashSet()
					crash.Arm(spec.point, spec.nth)
					sub := newCDRun(t, int64(cell*31+i+2), crash)
					sub.setup(op.expr, ctx)
					sub.run()
					gotActs := sub.acts.snapshot()
					gotOccs := sub.occs.snapshot()
					tag := fmt.Sprintf("%s nth=%d (tripped=%q)", spec.point, spec.nth, crash.Tripped())
					if !equalStrings(wantOccs, gotOccs) {
						t.Errorf("%s: occurrence stream diverged\noracle: %v\nsubject: %v", tag, wantOccs, gotOccs)
					}
					if !equalStrings(wantActs, gotActs) {
						t.Errorf("%s: action stream diverged (%d vs %d)\nonly-oracle: %v\nonly-subject: %v",
							tag, len(wantActs), len(gotActs), diffStrings(wantActs, gotActs), diffStrings(gotActs, wantActs))
					}
					sub.agent.Close()
				}
			})
			cell++
		}
	}
}

// TestCrashDifferentialProducesActions guards the matrix against vacuous
// cells: every operator's crash-free oracle run must execute the
// composite's action at least once in at least one context, or the script
// never exercises the state the crash points are meant to threaten.
func TestCrashDifferentialProducesActions(t *testing.T) {
	for _, op := range cdOperators {
		op := op
		t.Run(op.name, func(t *testing.T) {
			t.Parallel()
			total := 0
			for _, ctx := range cdContexts {
				r := newCDRun(t, 1, nil)
				r.setup(op.expr, ctx)
				r.run()
				for _, b := range r.acts.snapshot() {
					if strings.Contains(b, "cd_comp") {
						total++
					}
				}
				r.agent.Close()
			}
			if total == 0 {
				t.Errorf("operator %s: composite action never executed in any context", op.name)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffStrings returns the sorted multiset difference a - b.
func diffStrings(a, b []string) []string {
	count := make(map[string]int)
	for _, s := range b {
		count[s]++
	}
	var out []string
	for _, s := range a {
		if count[s] > 0 {
			count[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}
