package agent

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// isActionBatch reports whether a batch runs a rule action's procedure.
func isActionBatch(b string) bool {
	for _, line := range strings.Split(b, "\n") {
		if strings.HasPrefix(line, "execute ") {
			return true
		}
	}
	return false
}

// gatedUpstream holds rule-action batches until open is closed, then lets
// them through — an upstream that is slow, not broken. The first held
// batch announces itself on entered.
type gatedUpstream struct {
	Upstream
	open    <-chan struct{}
	entered chan<- struct{}
}

func (u gatedUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	if isActionBatch(sql) {
		select {
		case u.entered <- struct{}{}:
		default:
		}
		<-u.open
	}
	return u.Upstream.Exec(sql)
}

func gateDialer(inner UpstreamDialer, open <-chan struct{}, entered chan<- struct{}) UpstreamDialer {
	return func(user, db string) (Upstream, error) {
		up, err := inner(user, db)
		if err != nil {
			return nil, err
		}
		return gatedUpstream{Upstream: up, open: open, entered: entered}, nil
	}
}

// TestActionQueueOneWorkerFIFO: with the upstream held, a backlog of 200
// firings is queue entries, not parked goroutines — one worker runs rule
// actions however deep the backlog — and once released the actions
// complete in detection order, higher priority first within an occurrence.
func TestActionQueueOneWorkerFIFO(t *testing.T) {
	open, entered := make(chan struct{}), make(chan struct{}, 1)
	r := newChaosRig(t, nil, func(c *Config) {
		c.Dial = gateDialer(c.Dial, open, entered)
		c.Retry = RetryConfig{} // no per-attempt deadline: held is not hung
		c.ActionBuffer = 256
	})
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger lo on stock for insert event addStk as print 'lo'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("create trigger hi event addStk 10 as print 'hi'"); err != nil {
		t.Fatal(err)
	}
	ev, tbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"
	const occurrences = 100

	r.agent.Deliver(notifMsg(ev, tbl, "insert", 1))
	select {
	case <-entered: // the worker is up and held inside the first action
	case <-time.After(5 * time.Second):
		t.Fatal("first action never reached the upstream")
	}
	before := runtime.NumGoroutine()
	for v := 2; v <= occurrences; v++ {
		r.agent.Deliver(notifMsg(ev, tbl, "insert", v))
	}
	if grown := runtime.NumGoroutine() - before; grown > 4 {
		t.Errorf("%d queued firings grew the goroutine count by %d; the backlog must not be goroutines", 2*occurrences-2, grown)
	}

	close(open)
	for v := 1; v <= occurrences; v++ {
		for _, rule := range []string{"sentineldb.sharma.hi", "sentineldb.sharma.lo"} {
			res := waitAction(t, r.agent)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if got := res.Occ.Constituents[0].VNo; res.Rule != rule || got != v {
				t.Fatalf("completion order: got %s vNo %d, want %s vNo %d", res.Rule, got, rule, v)
			}
		}
	}
	if st := r.agent.Stats(); st.ActionReportsDropped != 0 {
		t.Errorf("ActionReportsDropped = %d", st.ActionReportsDropped)
	}
}

// TestResumedActionsRunBeforeLiveFirings: actions a dead incarnation left
// pending re-enter the one action queue during recovery, so they complete
// — in their original detection order — before anything detected after
// the restart.
func TestResumedActionsRunBeforeLiveFirings(t *testing.T) {
	r := newDurableRig(t)
	wedge := newWedgeDialer(r.eng)
	t.Cleanup(func() { close(wedge.release) })
	a1 := r.start(func(cfg *Config) {
		cfg.Dial = wedge.dial
		cfg.DrainTimeout = 100 * time.Millisecond
	})
	cs := r.session(a1)
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	wedge.armed.Store(true)
	const pending = 3
	for i := 1; i <= pending; i++ {
		if _, err := cs.Exec(fmt.Sprintf("insert stock values ('S%d', %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	a1.Close() // drain deadline passes; all three stay pending in the final checkpoint

	open := make(chan struct{})
	a2 := r.start(func(cfg *Config) { cfg.Dial = gateDialer(cfg.Dial, open, nil) })
	defer a2.Close()
	// A live occurrence arrives while the resumed backlog is still held.
	if _, err := r.eng.NewSession("sharma").ExecScript(fmt.Sprintf(
		"use sentineldb\ninsert stock values ('S%d', %d)", pending+1, pending+1)); err != nil {
		t.Fatal(err)
	}
	close(open)
	for v := 1; v <= pending+1; v++ {
		res := waitAction(t, a2)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if got := res.Occ.Constituents[0].VNo; got != v {
			t.Fatalf("completion %d is vNo %d; resumed actions must run first, in order", v, got)
		}
	}
	a2.WaitActions()
	if st := a2.Stats(); st.ActionsRun != pending+1 {
		t.Errorf("ActionsRun = %d, want %d", st.ActionsRun, pending+1)
	}
}

// actionScript is the script a fresh scriptWriter writes.
func actionScript(p ActionParam, occ *led.Occ) string {
	var w scriptWriter
	return w.script(p, occ)
}

// TestAllocsActionScript holds a warm one-constituent script to one
// allocation, its string, and a writer reused across occurrences to the
// text a fresh one writes.
func TestAllocsActionScript(t *testing.T) {
	p := ActionParam{StoreProc: "sentineldb.sharma.watch__Proc", Context: led.Recent, DB: "sentineldb"}
	one := &led.Occ{Constituents: []led.Primitive{{Table: "sentineldb.sharma.stock", Op: "insert", VNo: 41}}}
	many := &led.Occ{Constituents: []led.Primitive{
		{Table: "sentineldb.sharma.o'k", Op: "update", VNo: 7}, {Op: "tick"},
		{Table: "sentineldb.sharma.stock", Op: "delete", VNo: 41}, {Table: "sentineldb.sharma.o'k", Op: "update", VNo: 7},
	}}
	var w scriptWriter
	for _, occ := range []*led.Occ{many, one, many, one} {
		if got, want := w.script(p, occ), actionScript(p, occ); got != want {
			t.Fatalf("reused writer wrote\n%s\nwant\n%s", got, want)
		}
	}
	if got := testing.AllocsPerRun(200, func() { _ = w.script(p, one) }); got > 1 {
		t.Errorf("warm one-constituent script: %.1f allocations, want 1", got)
	}
}

// TestInvokeScriptText pins the exact §5.6 populate + execute script:
// one sysContext delete for the whole context, one insert per
// distinct (shadow, vNo), an update constituent touching both shadows,
// temporal constituents skipped, names escaped.
func TestInvokeScriptText(t *testing.T) {
	p := ActionParam{StoreProc: "db.u.r__Proc", EventName: "db.u.e", Context: led.Chronicle, DB: "db"}
	prim := func(table, op string, vno int) led.Primitive {
		return led.Primitive{Event: "db.u.e", Table: table, Op: op, VNo: vno}
	}
	for _, tc := range []struct {
		name  string
		parts []led.Primitive
		want  string
	}{
		{"insert", []led.Primitive{prim("db.u.stock", "insert", 7)},
			"use db\n" +
				"delete sysContext where context = 'CHRONICLE'\n" +
				"insert sysContext values ('db.u.stock_inserted', 'CHRONICLE', 7)\n" +
				"execute db.u.r__Proc"},
		{"update", []led.Primitive{prim("db.u.stock", "update", 12345)},
			"use db\n" +
				"delete sysContext where context = 'CHRONICLE'\n" +
				"insert sysContext values ('db.u.stock_inserted', 'CHRONICLE', 12345)\n" +
				"insert sysContext values ('db.u.stock_deleted', 'CHRONICLE', 12345)\n" +
				"execute db.u.r__Proc"},
		{"repeated", []led.Primitive{prim("db.u.stock", "insert", 3), {Op: "tick"}, prim("db.u.stock", "insert", 3)},
			"use db\n" +
				"delete sysContext where context = 'CHRONICLE'\n" +
				"insert sysContext values ('db.u.stock_inserted', 'CHRONICLE', 3)\n" +
				"execute db.u.r__Proc"},
		{"composite", []led.Primitive{
			prim("db.u.stock", "insert", 3), prim("db.u.o'k", "delete", -5),
			prim("db.u.stock", "insert", 4), prim("db.u.stock", "update", 9), prim("db.u.o'k", "delete", -5)},
			"use db\n" +
				"delete sysContext where context = 'CHRONICLE'\n" +
				"insert sysContext values ('db.u.stock_inserted', 'CHRONICLE', 3)\n" +
				"insert sysContext values ('db.u.o''k_deleted', 'CHRONICLE', -5)\n" +
				"insert sysContext values ('db.u.stock_inserted', 'CHRONICLE', 4)\n" +
				"insert sysContext values ('db.u.stock_inserted', 'CHRONICLE', 9)\n" +
				"insert sysContext values ('db.u.stock_deleted', 'CHRONICLE', 9)\n" +
				"execute db.u.r__Proc"},
	} {
		if got := actionScript(p, &led.Occ{Event: p.EventName, Context: p.Context, Constituents: tc.parts}); got != tc.want {
			t.Errorf("%s: script\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
