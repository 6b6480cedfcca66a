package agent

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// fastRetry keeps resilience tests quick without changing semantics.
var fastRetry = RetryConfig{
	MaxAttempts:    8,
	BaseDelay:      time.Millisecond,
	MaxDelay:       5 * time.Millisecond,
	AttemptTimeout: 100 * time.Millisecond,
}

// newChaosRig builds an in-process deployment whose agent-internal
// connections all pass through the given injector, with notifications
// delivered directly (mutate the delivery path per test via SetNotifier).
func newChaosRig(t *testing.T, inj *faults.Injector, mutate func(*Config)) *rig {
	t.Helper()
	eng := engine.New(catalog.New())
	base := LocalDialer(eng)
	cfg := Config{
		Dial: func(user, db string) (Upstream, error) {
			up, err := base(user, db)
			if err != nil {
				return nil, err
			}
			if inj == nil {
				return up, nil
			}
			return inj.Wrap(up), nil
		},
		NotifyAddr: "-",
		Logf:       func(string, ...any) {},
		Retry:      fastRetry,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	eng.SetNotifier(func(host string, port int, msg string) error {
		a.Deliver(msg)
		return nil
	})
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript(`create database sentineldb
use sentineldb
create table stock (symbol varchar(10), price float null)
create table audit (symbol varchar(10) null)`); err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, agent: a}
}

func notifMsg(event, table, op string, vno int) string {
	return fmt.Sprintf("ECA1|%s|%s|%s|%d", event, table, op, vno)
}

// --- gap detection & recovery ---------------------------------------------

func TestGapFillReplaysMissedOccurrences(t *testing.T) {
	r := newChaosRig(t, nil, nil)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	ev, tbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"

	r.agent.Deliver(notifMsg(ev, tbl, "insert", 1))
	// vNo jumps 1 → 4: occurrences 2 and 3 were lost in flight and must be
	// replayed before 4 is signalled.
	r.agent.Deliver(notifMsg(ev, tbl, "insert", 4))
	var vnos []int
	for i := 0; i < 4; i++ {
		res := waitAction(t, r.agent)
		if res.Err != nil {
			t.Fatalf("action %d: %v", i, res.Err)
		}
		vnos = append(vnos, res.Occ.Constituents[0].VNo)
	}
	if fmt.Sprint(vnos) != "[1 2 3 4]" {
		t.Errorf("replay order: %v", vnos)
	}

	// A late (reordered) or duplicated datagram below the watermark is
	// suppressed — the gap fill already ran its occurrence.
	r.agent.Deliver(notifMsg(ev, tbl, "insert", 3))
	r.agent.Deliver(notifMsg(ev, tbl, "insert", 4))
	r.agent.WaitActions()
	select {
	case res := <-r.agent.ActionDone:
		t.Fatalf("duplicate fired an action: %+v", res)
	default:
	}

	st := r.agent.Stats()
	if st.GapsDetected != 1 || st.OccurrencesRecovered != 2 {
		t.Errorf("gap stats: %+v", st)
	}
	if st.NotificationsDuplicate != 2 {
		t.Errorf("NotificationsDuplicate = %d", st.NotificationsDuplicate)
	}
}

func TestResyncRecoversTrailingLoss(t *testing.T) {
	r := newChaosRig(t, nil, nil)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as insert audit select symbol from stock.inserted"); err != nil {
		t.Fatal(err)
	}
	// Black-hole the notification path: every datagram is lost, so no later
	// arrival can ever reveal the gap — only the sweep can.
	r.eng.SetNotifier(func(string, int, string) error { return nil })
	sess := r.eng.NewSession("sharma")
	if err := sess.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.ExecScript(fmt.Sprintf("insert stock values ('S%d', %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.agent.Resync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res := waitAction(t, r.agent); res.Err != nil {
			t.Fatalf("recovered action: %v", res.Err)
		}
	}
	// The replayed occurrences materialized the right parameter contexts:
	// each audit row carries the symbol of one lost occurrence.
	rs, err := sess.ExecScript("select symbol from audit order by symbol")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range rs[len(rs)-1].Rows {
		got = append(got, row[0].AsString())
	}
	if fmt.Sprint(got) != "[S0 S1 S2]" {
		t.Errorf("audit rows: %v", got)
	}
	st := r.agent.Stats()
	if st.GapsDetected != 1 || st.OccurrencesRecovered != 3 {
		t.Errorf("resync stats: %+v", st)
	}
	// A second sweep finds nothing new.
	if err := r.agent.Resync(); err != nil {
		t.Fatal(err)
	}
	if st := r.agent.Stats(); st.OccurrencesRecovered != 3 {
		t.Errorf("idempotent resync: %+v", st)
	}
}

func TestPeriodicResyncSweep(t *testing.T) {
	r := newChaosRig(t, nil, func(cfg *Config) {
		cfg.ResyncInterval = 10 * time.Millisecond
	})
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	r.eng.SetNotifier(func(string, int, string) error { return nil }) // lose everything
	sess := r.eng.NewSession("sharma")
	_ = sess.Use("sentineldb")
	if _, err := sess.ExecScript("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	// The background sweep must find and replay the loss without any help.
	if res := waitAction(t, r.agent); res.Err != nil {
		t.Fatalf("sweep-recovered action: %v", res.Err)
	}
}

// sweepHang wedges the resync sweep: once armed, an Exec that reads the
// server's occurrence counter blocks until its connection is closed (or
// the test gives up and releases it).
type sweepHang struct {
	armed       atomic.Bool
	blocked     chan struct{} // closed when the first sweep query blocks
	blockedOnce sync.Once
	release     chan struct{}
}

type sweepHangUpstream struct {
	Upstream
	h         *sweepHang
	closed    chan struct{}
	closeOnce sync.Once
}

func (u *sweepHangUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	if u.h.armed.Load() && strings.Contains(sql, "select vNo from") {
		u.h.blockedOnce.Do(func() { close(u.h.blocked) })
		select {
		case <-u.closed:
		case <-u.h.release:
		}
		return nil, net.ErrClosed
	}
	return u.Upstream.Exec(sql)
}

func (u *sweepHangUpstream) Close() error {
	u.closeOnce.Do(func() { close(u.closed) })
	return u.Upstream.Close()
}

// TestCloseUnblocksWedgedResync: a resync sweep whose counter query hangs
// (no per-attempt deadline is configured) must not hold Close past the
// drain deadline — Close releases the sweep's connection before it waits
// for the background goroutines.
func TestCloseUnblocksWedgedResync(t *testing.T) {
	h := &sweepHang{blocked: make(chan struct{}), release: make(chan struct{})}
	r := newRigWith(t, func(cfg *Config) {
		dial := cfg.Dial
		cfg.Dial = func(user, db string) (Upstream, error) {
			up, err := dial(user, db)
			if err != nil {
				return nil, err
			}
			return &sweepHangUpstream{Upstream: up, h: h, closed: make(chan struct{})}, nil
		}
		cfg.ResyncInterval = 10 * time.Millisecond
		cfg.DrainTimeout = 100 * time.Millisecond
	})
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	h.armed.Store(true)
	select {
	case <-h.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("resync sweep never queried the occurrence counter")
	}
	done := make(chan struct{})
	go func() {
		r.agent.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		close(h.release) // let Close finish so the test can report
		<-done
		t.Fatal("Close did not return with the resync sweep wedged (drain deadline 100ms)")
	}
}

// --- retrying upstream -----------------------------------------------------

// scriptedUp fails each Exec with the next scripted error (nil = success,
// past the end = success) and counts calls.
type scriptedUp struct {
	mu    sync.Mutex
	errs  []error
	calls int
}

func (u *scriptedUp) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	i := u.calls
	u.calls++
	if i < len(u.errs) && u.errs[i] != nil {
		return nil, u.errs[i]
	}
	return []*sqltypes.ResultSet{{Messages: []string{"ok"}}}, nil
}

func (u *scriptedUp) Close() error { return nil }

func TestRetryUpstreamReconnectsOnTransientFailure(t *testing.T) {
	up := &scriptedUp{errs: []error{syscall.ECONNRESET, syscall.ECONNRESET, nil}}
	var retries, reconnects int
	dials := 0
	r := newRetryUpstream(
		func() (Upstream, error) { dials++; return up, nil },
		fastRetry, nil,
		func() { retries++ },
		func() { reconnects++ },
	)
	defer r.Close()
	rs, err := r.Exec("select 1")
	if err != nil {
		t.Fatalf("exec after transient failures: %v", err)
	}
	if len(rs) != 1 || rs[0].Messages[0] != "ok" {
		t.Fatalf("results: %+v", rs)
	}
	if retries != 2 || reconnects != 2 || dials != 3 {
		t.Errorf("retries=%d reconnects=%d dials=%d", retries, reconnects, dials)
	}
}

func TestRetryUpstreamTerminalErrorNotRetried(t *testing.T) {
	srvErr := &tds.ServerError{Msg: "table not found"}
	up := &scriptedUp{errs: []error{srvErr}}
	var retries int
	r := newRetryUpstream(
		func() (Upstream, error) { return up, nil },
		fastRetry, nil,
		func() { retries++ }, nil,
	)
	defer r.Close()
	_, err := r.Exec("select * from nope")
	var se *tds.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("terminal error rewritten: %v", err)
	}
	if retries != 0 || up.calls != 1 {
		t.Errorf("terminal error retried: retries=%d calls=%d", retries, up.calls)
	}
}

func TestRetryUpstreamExhaustsAttempts(t *testing.T) {
	cfg := fastRetry
	cfg.MaxAttempts = 3
	r := newRetryUpstream(
		func() (Upstream, error) {
			return &scriptedUp{errs: []error{syscall.ECONNRESET, syscall.ECONNRESET, syscall.ECONNRESET}}, nil
		},
		cfg, nil, nil, nil,
	)
	defer r.Close()
	_, err := r.Exec("select 1")
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("exhaustion error: %v", err)
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("cause not wrapped: %v", err)
	}
}

func TestRetryUpstreamAttemptDeadlineAbortsHang(t *testing.T) {
	inj := faults.NewInjector(faults.Script(faults.Hang))
	inj.Arm()
	cfg := fastRetry
	cfg.AttemptTimeout = 30 * time.Millisecond
	r := newRetryUpstream(
		func() (Upstream, error) { return inj.Wrap(&scriptedUp{}), nil },
		cfg, nil, nil, nil,
	)
	defer r.Close()
	start := time.Now()
	if _, err := r.Exec("select 1"); err != nil {
		t.Fatalf("exec after hung attempt: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hang not aborted by deadline (took %v)", elapsed)
	}
}

// TestRetryUpstreamAttemptDeadlineSilentServer runs the retry ladder over
// real client connections to a server that acks the login and then never
// answers. Each timed-out attempt must close its connection out from
// under the blocked Exec, so the whole call fails with errAttemptTimeout
// after two attempts instead of waiting for a response that never comes.
func TestRetryUpstreamAttemptDeadlineSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tds.ReadPacket(conn); err != nil {
					return
				}
				if err := tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{OK: true})); err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, conn) // read requests, answer none
			}()
		}
	}()
	r := newRetryUpstream(
		func() (Upstream, error) { return client.Connect(ln.Addr().String(), client.Options{}) },
		RetryConfig{MaxAttempts: 2, AttemptTimeout: 200 * time.Millisecond},
		nil, nil, nil,
	)
	defer func() {
		// Stop the server first: its closed sockets release an Exec that
		// a failed deadline left blocked, so r.Close cannot hang the test.
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
		r.Close()
	}()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := r.Exec("select 1")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errAttemptTimeout) {
			t.Fatalf("exec against a silent server: %v, want errAttemptTimeout", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("exec took %v, want under 1s", elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("exec still blocked after 3s: the timed-out attempt's Close waited for the hung Exec")
	}
}

// --- dead-letter queue -----------------------------------------------------

func TestDeadLetterQueueBounded(t *testing.T) {
	r := newChaosRig(t, nil, func(cfg *Config) { cfg.DeadLetterLimit = 2 })
	cs := r.session(t, "sharma", "sentineldb")
	// The action references a missing table: a terminal, non-retryable
	// failure every time it runs.
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as select * from nope"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := cs.Exec(fmt.Sprintf("insert stock values ('S%d', %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if res := waitAction(t, r.agent); res.Err == nil {
			t.Fatal("broken action reported success")
		}
	}
	dead := r.agent.DeadLetters()
	if len(dead) != 2 {
		t.Fatalf("dead letters: %d (limit 2)", len(dead))
	}
	// Oldest evicted: the survivors are occurrences 2 and 3.
	if v1, v2 := dead[0].Occ.Constituents[0].VNo, dead[1].Occ.Constituents[0].VNo; v1 != 2 || v2 != 3 {
		t.Errorf("dead-letter vNos: %d, %d", v1, v2)
	}
	if st := r.agent.Stats(); st.ActionsDeadLettered != 3 || st.ActionsFailed != 3 {
		t.Errorf("dead-letter stats: %+v", st)
	}
}

// --- graceful drain --------------------------------------------------------

func TestCloseDrainDeadlineAbandonsHungAction(t *testing.T) {
	inj := faults.NewInjector(faults.Cycle(faults.Hang))
	r := newChaosRig(t, inj, func(cfg *Config) {
		cfg.DrainTimeout = 100 * time.Millisecond
		rc := fastRetry
		rc.AttemptTimeout = 0 // no per-attempt deadline: the action truly hangs
		cfg.Retry = rc
	})
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	cs.Close()
	inj.Arm()
	sess := r.eng.NewSession("sharma")
	_ = sess.Use("sentineldb")
	if _, err := sess.ExecScript("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the action reach the hung Exec
	start := time.Now()
	r.agent.Close()
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Errorf("Close returned before the drain deadline: %v", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("Close hung past the drain deadline: %v", elapsed)
	}
}

// --- acceptance: at-least-once under chaos ---------------------------------

// TestAtLeastOnceUnderChaos is the issue's acceptance scenario: ≥25% of
// notifications are dropped (plus duplication and reordering), and the
// action-handler upstream is repeatedly killed and hung mid-run — yet every
// expected rule action executes exactly once, because recovery dedupes and
// replays by vNo and the retrying upstream redials through failures.
func TestAtLeastOnceUnderChaos(t *testing.T) {
	inj := faults.NewInjector(faults.Cycle(
		faults.None, faults.Error, faults.None, faults.Disconnect, faults.None, faults.Hang,
	))
	r := newChaosRig(t, inj, func(cfg *Config) { cfg.ActionBuffer = 1024 })
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t_audit on stock for insert event addStk as insert audit select symbol from stock.inserted"); err != nil {
		t.Fatal(err)
	}
	cs.Close()

	// The notification path drops ~30%, duplicates ~15% and reorders within
	// windows of 3 — all seeded, so the run is reproducible.
	pipe := faults.NewPipe(faults.PipeConfig{Seed: 42, DropRate: 0.3, DupRate: 0.15, ReorderEvery: 3}, r.agent.Deliver)
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		pipe.Send(msg)
		return nil
	})
	inj.Arm() // start killing the agent's upstream connections

	const n = 40
	sess := r.eng.NewSession("sharma")
	if err := sess.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sess.ExecScript(fmt.Sprintf("insert stock values ('S%02d', %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Flush()          // release anything held in the reorder window
	r.agent.WaitActions() // drain in-flight actions
	if err := r.agent.Resync(); err != nil {
		t.Fatalf("resync: %v", err)
	}
	r.agent.WaitActions() // drain the trailing-loss replays
	inj.Disarm()

	if pipe.Dropped() < n/4 {
		t.Fatalf("fault injection too gentle: dropped %d of %d (< 25%%)", pipe.Dropped(), n)
	}
	// Exactly one audit row per insert, each with the right parameter
	// context — no loss, no double execution.
	rs, err := sess.ExecScript("select symbol from audit order by symbol")
	if err != nil {
		t.Fatal(err)
	}
	rows := rs[len(rs)-1].Rows
	if len(rows) != n {
		t.Fatalf("audit rows: %d want %d (dropped=%d duped=%d stats=%+v)",
			len(rows), n, pipe.Dropped(), pipe.Duplicated(), r.agent.Stats())
	}
	for i, row := range rows {
		if want := fmt.Sprintf("S%02d", i); row[0].AsString() != want {
			t.Errorf("audit[%d] = %q want %q", i, row[0].AsString(), want)
		}
	}
	st := r.agent.Stats()
	if st.ActionsRun != n || st.ActionsFailed != 0 {
		t.Errorf("actions: %+v", st)
	}
	if st.OccurrencesRecovered == 0 || st.GapsDetected == 0 {
		t.Errorf("recovery never engaged: %+v", st)
	}
	if st.UpstreamRetries == 0 || st.UpstreamReconnects == 0 {
		t.Errorf("retry layer never engaged: %+v", st)
	}
	if st.NotificationsDuplicate == 0 {
		t.Errorf("no duplicates suppressed: %+v", st)
	}
}
