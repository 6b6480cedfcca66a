package agent

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// durableRig is a restartable in-process deployment: the engine and the
// durable directory outlive agent incarnations.
type durableRig struct {
	t   *testing.T
	eng *engine.Engine
	fs  *faults.CrashDir
}

func newDurableRig(t *testing.T) *durableRig {
	t.Helper()
	r := &durableRig{t: t, eng: engine.New(catalog.New()), fs: faults.NewCrashDir(1)}
	seed := r.eng.NewSession("sharma")
	if _, err := seed.ExecScript(`create database sentineldb
use sentineldb
create table stock (symbol varchar(10), price float null)`); err != nil {
		t.Fatal(err)
	}
	return r
}

// start boots one agent incarnation over the shared durable directory.
func (r *durableRig) start(mutate func(*Config)) *Agent {
	r.t.Helper()
	cfg := Config{
		Dial:       LocalDialer(r.eng),
		NotifyAddr: "-",
		Logf:       func(string, ...any) {},
		Durability: &Durability{FS: r.fs, WALSync: WALSyncAlways},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		r.t.Fatalf("starting agent: %v", err)
	}
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		a.Deliver(msg)
		return nil
	})
	return a
}

func (r *durableRig) session(a *Agent) *ClientSession {
	r.t.Helper()
	cs, err := a.NewClientSession("sharma", "sentineldb")
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { cs.Close() })
	return cs
}

// TestDLQPersistsAcrossRestart: dead-lettered actions are flushed with the
// final checkpoint on Close and reloaded on the next start — and the done
// mark in the journal keeps the failed action from re-running.
func TestDLQPersistsAcrossRestart(t *testing.T) {
	r := newDurableRig(t)
	a1 := r.start(nil)
	cs := r.session(a1)
	// Terminal failure every run: the action references a missing table.
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as select * from nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	if res := waitAction(t, a1); res.Err == nil {
		t.Fatal("broken action reported success")
	}
	a1.Close()

	a2 := r.start(nil)
	defer a2.Close()
	dead := a2.DeadLetters()
	if len(dead) != 1 {
		t.Fatalf("dead letters after restart: %d, want 1", len(dead))
	}
	if dead[0].Rule != "sentineldb.sharma.t" || dead[0].Err == nil {
		t.Errorf("reloaded dead letter: %+v", dead[0])
	}
	if dead[0].Occ == nil || dead[0].Occ.Constituents[0].VNo != 1 {
		t.Errorf("reloaded dead letter lost its occurrence: %+v", dead[0].Occ)
	}
	// The journal proves the action completed (it ran and failed
	// terminally); recovery must not run it again.
	a2.WaitActions()
	if st := a2.Stats(); st.ActionsRun != 0 {
		t.Errorf("restart re-ran a dead-lettered action: %+v", st)
	}
}

// TestWatermarkSeededBeforeDeliver: after a restart the delivery
// watermarks are in place before the agent accepts any notification, so a
// stale or duplicated datagram racing startup is suppressed instead of
// being misjudged against an uninitialized (zero) watermark and
// re-firing old occurrences.
func TestWatermarkSeededBeforeDeliver(t *testing.T) {
	r := newDurableRig(t)
	a1 := r.start(nil)
	cs := r.session(a1)
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := cs.Exec(fmt.Sprintf("insert stock values ('S%d', %d)", i, i)); err != nil {
			t.Fatal(err)
		}
		waitAction(t, a1)
	}
	a1.Close()

	a2 := r.start(nil)
	defer a2.Close()
	// First thing through the door: a duplicate of an old occurrence (a
	// UDP datagram that was in flight across the restart).
	ev, tbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"
	a2.Deliver(notifMsg(ev, tbl, "insert", 2))
	a2.Deliver(notifMsg(ev, tbl, "insert", 3))
	a2.WaitActions()
	st := a2.Stats()
	if st.NotificationsDuplicate != 2 {
		t.Errorf("stale deliveries not judged duplicates: %+v", st)
	}
	if st.ActionsRun != 0 || st.OccurrencesRecovered != 0 {
		t.Errorf("stale deliveries re-fired pre-restart occurrences: %+v", st)
	}
	// The next genuine occurrence is still accepted.
	if _, err := r.eng.NewSession("sharma").ExecScript("use sentineldb\ninsert stock values ('S4', 4)"); err != nil {
		t.Fatal(err)
	}
	if res := waitAction(t, a2); res.Occ.Constituents[0].VNo != 4 {
		t.Errorf("post-restart occurrence: %+v", res.Occ)
	}
}

// wedgeDialer blocks action batches until released, returning an error —
// the shape of an upstream that has stopped answering.
type wedgeDialer struct {
	inner   UpstreamDialer
	armed   atomic.Bool
	release chan struct{}
}

func newWedgeDialer(eng *engine.Engine) *wedgeDialer {
	return &wedgeDialer{inner: LocalDialer(eng), release: make(chan struct{})}
}

func (w *wedgeDialer) dial(user, db string) (Upstream, error) {
	up, err := w.inner(user, db)
	if err != nil {
		return nil, err
	}
	return wedgedUpstream{up: up, w: w}, nil
}

type wedgedUpstream struct {
	up Upstream
	w  *wedgeDialer
}

func (u wedgedUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	if u.w.armed.Load() && isActionBatch(sql) {
		<-u.w.release
		return nil, fmt.Errorf("wedged connection aborted")
	}
	return u.up.Exec(sql)
}

func (u wedgedUpstream) Close() error { return u.up.Close() }

// TestCloseDrainDeadlineWedged: a wedged upstream holds a rule action
// in flight forever while the background checkpoint loop is running.
// Close must still return within the drain deadline, and the final
// checkpoint it cuts must be loadable — with the abandoned action
// recorded pending, so the next incarnation runs it exactly once.
func TestCloseDrainDeadlineWedged(t *testing.T) {
	r := newDurableRig(t)
	wedge := newWedgeDialer(r.eng)
	t.Cleanup(func() { close(wedge.release) })
	a1 := r.start(func(cfg *Config) {
		cfg.Dial = wedge.dial
		cfg.DrainTimeout = 200 * time.Millisecond
		cfg.Durability.CheckpointInterval = time.Millisecond
	})
	cs := r.session(a1)
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'recovered'"); err != nil {
		t.Fatal(err)
	}
	wedge.armed.Store(true)
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	a1.Close()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Close took %v with a wedged action (drain deadline 200ms)", elapsed)
	}

	// The next incarnation dials clean connections, loads the final
	// checkpoint, and resumes the abandoned action.
	a2 := r.start(nil)
	defer a2.Close()
	res := waitAction(t, a2)
	if len(res.Messages) != 1 || res.Messages[0] != "recovered" || res.Err != nil {
		t.Fatalf("resumed action: %+v", res)
	}
	a2.WaitActions()
	if st := a2.Stats(); st.ActionsRun != 1 {
		t.Errorf("resumed action ran %d times, want 1", st.ActionsRun)
	}
}

// TestRecoveryMetricsExposed: the durability instruments appear on the
// Prometheus surface and move when checkpoints and journal records
// happen.
func TestRecoveryMetricsExposed(t *testing.T) {
	r := newDurableRig(t)
	a := r.start(nil)
	defer a.Close()
	cs := r.session(a)
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	waitAction(t, a)
	a.WaitActions()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	a.Metrics().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"eca_recovery_checkpoints_total",
		"eca_recovery_checkpoint_bytes",
		"eca_recovery_checkpoint_age_seconds",
		"eca_recovery_wal_records_total",
		"eca_recovery_wal_syncs_total",
		"eca_recovery_replayed_records_total",
		"eca_recovery_resumed_actions_total",
		"eca_recovery_deduped_actions_total",
		"eca_recovery_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
	// New cuts one recovery checkpoint, the test a second: the counter and
	// the journal traffic must both have moved.
	if !strings.Contains(out, "eca_recovery_checkpoints_total 2") {
		t.Errorf("checkpoint counter did not advance:\n%s", grepLines(out, "eca_recovery_checkpoints"))
	}
	if strings.Contains(out, "eca_recovery_wal_records_total 0") {
		t.Errorf("journal recorded nothing:\n%s", grepLines(out, "wal_records"))
	}
}

// TestWALSyncNoneAtLeastOnce: under the none policy the journal takes
// records but is never synced, so a crash may lose them. The shadow-table
// resync after the restart still runs every occurrence's action at least
// once.
func TestWALSyncNoneAtLeastOnce(t *testing.T) {
	r := newDurableRig(t)
	before, after := &actionLog{}, &actionLog{}
	crash := faults.NewCrashSet()
	crash.Arm("action.preExec", 2) // the second occurrence's action never runs
	a1 := r.start(func(c *Config) {
		c.Dial = before.dial(LocalDialer(r.eng))
		c.Durability.WALSync = WALSyncNone
		c.Durability.Crash = crash
	})
	cs := r.session(a1)
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"A", "B"} {
		if _, err := cs.Exec("insert stock values ('" + sym + "', 1)"); err != nil {
			t.Fatal(err)
		}
		a1.WaitActions()
	}
	if crash.Tripped() == "" {
		t.Fatal("the second action was not stopped")
	}
	var b strings.Builder
	a1.Metrics().WritePrometheus(&b)
	if out := b.String(); !strings.Contains(out, "eca_recovery_wal_syncs_total 0") ||
		strings.Contains(out, "eca_recovery_wal_records_total 0") {
		t.Fatalf("under none the journal must take records and no syncs:\n%s", grepLines(out, "eca_recovery_wal_"))
	}

	// Power cut: the unsynced journal tail is gone; a1 is abandoned.
	r.fs.Crash()
	r.fs.Restart()
	a2 := r.start(func(c *Config) {
		c.Dial = after.dial(LocalDialer(r.eng))
		c.Durability.WALSync = WALSyncNone
	})
	defer a2.Close()
	a2.WaitActions()
	ran := func(log *actionLog, vno int) bool {
		log.mu.Lock()
		defer log.mu.Unlock()
		for _, batch := range log.batches {
			if strings.Contains(batch, fmt.Sprintf("', %d)\n", vno)) {
				return true
			}
		}
		return false
	}
	if ran(before, 2) || !ran(after, 2) {
		t.Errorf("vNo 2: ran before the crash %v, after %v; want only after", ran(before, 2), ran(after, 2))
	}
	if !ran(before, 1) && !ran(after, 1) {
		t.Error("vNo 1's action never ran")
	}
}

// actionLog keeps the rule-action batches an upstream ran.
type actionLog struct {
	mu      sync.Mutex
	batches []string
}

func (l *actionLog) dial(inner UpstreamDialer) UpstreamDialer {
	return func(user, db string) (Upstream, error) {
		up, err := inner(user, db)
		if err != nil {
			return nil, err
		}
		return loggedUpstream{up, l}, nil
	}
}

type loggedUpstream struct {
	Upstream
	l *actionLog
}

func (u loggedUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	rs, err := u.Upstream.Exec(sql)
	if err == nil && isActionBatch(sql) {
		u.l.mu.Lock()
		u.l.batches = append(u.l.batches, sql)
		u.l.mu.Unlock()
	}
	return rs, err
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestCheckpointRoundTrip: encode → decode is lossless for a populated
// checkpoint image.
func TestCheckpointRoundTrip(t *testing.T) {
	at := time.Unix(1700000000, 42).UTC()
	c := &checkpointData{
		Watermarks: map[string]ckptWatermark{
			"db.u.e": {Event: "db.u.e", Table: "db.u.t", Op: "insert", Last: 7},
		},
		LED: &led.StateSnapshot{
			Nodes: []led.NodeState{{
				Path: "db.u.comp/0",
				Kind: 3,
				Contexts: []led.CtxState{{
					Ctx:  led.Recent,
					Left: []led.OccState{{Event: "db.u.e", Context: led.Recent, At: at}},
				}},
			}, {
				// A CEP window node's partial state (format v2 section).
				Path: "db.u.win",
				Kind: 11,
				Contexts: []led.CtxState{{
					Ctx: led.Chronicle,
					Ring: []led.OccState{{Event: "db.u.e", Context: led.Chronicle, At: at,
						Constituents: []led.Primitive{{Event: "db.u.e", Table: "db.u.t", Op: "insert", VNo: 8, At: at}}}},
					NextBound: at.Add(5 * time.Second),
				}},
			}},
			Deferred: []led.FiringState{{Rule: "db.u.r", Occ: led.OccState{Event: "db.u.e", At: at}}},
			Outstanding: []led.FiringState{{Rule: "db.u.r2", Occ: led.OccState{Event: "db.u.e", At: at,
				Constituents: []led.Primitive{{Event: "db.u.e", Table: "db.u.t", Op: "insert", VNo: 7, At: at}}}}},
		},
		Pending: []ckptPending{{Key: "abc123", Rule: "db.u.r", Occ: led.OccState{Event: "db.u.e", At: at}}},
		DLQ: []ckptDead{{Rule: "db.u.r", Event: "db.u.e", HasOcc: true,
			Occ: led.OccState{Event: "db.u.e", At: at}, Messages: []string{"m"}, Err: "boom"}},
	}
	img, err := encodeCheckpoint(9, c)
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 9 {
		t.Errorf("epoch: %d", epoch)
	}
	if w := got.Watermarks["db.u.e"]; w.Last != 7 || w.Table != "db.u.t" {
		t.Errorf("watermark: %+v", w)
	}
	if len(got.LED.Nodes) != 2 || got.LED.Nodes[0].Path != "db.u.comp/0" || got.LED.Nodes[0].Kind != 3 {
		t.Errorf("nodes: %+v", got.LED.Nodes)
	}
	if len(got.LED.Outstanding) != 1 || got.LED.Outstanding[0].Occ.Constituents[0].VNo != 7 {
		t.Errorf("outstanding: %+v", got.LED.Outstanding)
	}
	if len(got.Pending) != 1 || got.Pending[0].Key != "abc123" {
		t.Errorf("pending: %+v", got.Pending)
	}
	if len(got.DLQ) != 1 || got.DLQ[0].Err != "boom" || !got.DLQ[0].HasOcc {
		t.Errorf("dlq: %+v", got.DLQ)
	}
	if !got.LED.Nodes[0].Contexts[0].Left[0].At.Equal(at) {
		t.Errorf("timestamp drifted: %v", got.LED.Nodes[0].Contexts[0].Left[0].At)
	}
	win := got.LED.Nodes[1].Contexts[0]
	if len(win.Ring) != 1 || win.Ring[0].Constituents[0].VNo != 8 {
		t.Errorf("window ring: %+v", win.Ring)
	}
	if !win.NextBound.Equal(at.Add(5 * time.Second)) {
		t.Errorf("window boundary deadline drifted: %v", win.NextBound)
	}
}

// TestCheckpointReadsV1 pins backward compatibility: an image written at
// format version 1 (before the CEP window section) must decode on a v2
// build, with every context's window state empty.
func TestCheckpointReadsV1(t *testing.T) {
	at := time.Unix(1700000000, 42).UTC()
	c := &checkpointData{
		Watermarks: map[string]ckptWatermark{
			"db.u.e": {Event: "db.u.e", Table: "db.u.t", Op: "insert", Last: 7},
		},
		LED: &led.StateSnapshot{
			Nodes: []led.NodeState{{
				Path: "db.u.comp/0",
				Kind: 3,
				Contexts: []led.CtxState{{
					Ctx:  led.Recent,
					Left: []led.OccState{{Event: "db.u.e", Context: led.Recent, At: at}},
				}},
			}},
		},
	}
	img, err := encodeCheckpointAt(4, c, ckptVersionV1)
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if epoch != 4 || len(got.LED.Nodes) != 1 {
		t.Fatalf("v1 decode: epoch=%d nodes=%+v", epoch, got.LED.Nodes)
	}
	cs := got.LED.Nodes[0].Contexts[0]
	if len(cs.Ring) != 0 || !cs.NextBound.IsZero() {
		t.Errorf("v1 image produced window state: %+v", cs)
	}
	if len(cs.Left) != 1 || !cs.Left[0].At.Equal(at) {
		t.Errorf("v1 payload content lost: %+v", cs)
	}
}
