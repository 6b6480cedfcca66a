package agent

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// rig is an in-process test deployment: engine + agent wired with direct
// (non-UDP) notification delivery for determinism.
type rig struct {
	eng   *engine.Engine
	agent *Agent
}

func newRig(t *testing.T) *rig { return newRigWith(t, nil) }

// newRigWith is newRig with mutate applied to the agent's Config.
func newRigWith(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	eng := engine.New(catalog.New())
	cfg := Config{
		Dial:       LocalDialer(eng),
		NotifyAddr: "-",
		Logf:       func(string, ...any) {},
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
	// Seed the paper's running example: sentineldb with sharma's stock
	// table.
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript(`create database sentineldb
use sentineldb
create table stock (symbol varchar(10), price float null)`); err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, agent: a}
}

func (r *rig) session(t *testing.T, user, db string) *ClientSession {
	t.Helper()
	cs, err := r.agent.NewClientSession(user, db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	return cs
}

// waitAction reads the next completed action, failing on timeout.
func waitAction(t *testing.T, a *Agent) ActionResult {
	t.Helper()
	select {
	case res := <-a.ActionDone:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for rule action")
		return ActionResult{}
	}
}

// Example 1 of the paper, §5.2.
const example1 = `create trigger t_addStk on stock for insert
event addStk
as print 'trigger t_addStk on primitive event addStk occurs'
select * from stock`

func TestExample1EndToEnd(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")

	results, err := cs.Exec(example1)
	if err != nil {
		t.Fatal(err)
	}
	var created bool
	for _, rs := range results {
		for _, m := range rs.Messages {
			if strings.Contains(m, "primitive event sentineldb.sharma.addStk created") {
				created = true
			}
		}
	}
	if !created {
		t.Fatalf("creation messages: %+v", results)
	}

	// Plain SQL flows through the agent transparently and fires the rule.
	if _, err := cs.Exec("insert stock values ('IBM', 101)"); err != nil {
		t.Fatal(err)
	}
	res := waitAction(t, r.agent)
	if res.Err != nil {
		t.Fatalf("action error: %v", res.Err)
	}
	if res.Rule != "sentineldb.sharma.t_addStk" || res.Event != "sentineldb.sharma.addStk" {
		t.Errorf("action identity: %+v", res)
	}
	if len(res.Messages) != 1 || !strings.Contains(res.Messages[0], "addStk occurs") {
		t.Errorf("action messages: %v", res.Messages)
	}
	// The action's SELECT * FROM stock saw the inserted row.
	var sawRow bool
	for _, rs := range res.Results {
		if rs.Schema != nil && len(rs.Rows) == 1 {
			sawRow = true
		}
	}
	if !sawRow {
		t.Errorf("action results: %+v", res.Results)
	}

	// Persistence: Figure 5 and Figure 7 rows exist, vNo was bumped.
	rs, err := cs.Query("select eventName, vNo from SysPrimitiveEvent")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "sentineldb.sharma.addStk" || rs.Rows[0][1].Int() != 1 {
		t.Errorf("SysPrimitiveEvent: %v", rs.Rows)
	}
	rs, err = cs.Query("select triggerName, eventName from SysEcaTrigger")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "sentineldb.sharma.t_addStk" {
		t.Errorf("SysEcaTrigger: %v", rs.Rows)
	}
	// Shadow table recorded the tuple with its occurrence number.
	rs, err = cs.Query("select symbol, vNo from sentineldb.sharma.stock_inserted")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "IBM" || rs.Rows[0][1].Int() != 1 {
		t.Errorf("shadow: %v", rs.Rows)
	}
}

// TestActionContextNotStale: an action reads only its own occurrence's
// tuples. The OR fired by a delete must not see the insert an earlier
// occurrence put in sysContext, and neither must an occurrence with no
// table constituent, such as a temporal one.
func TestActionContextNotStale(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	for _, sql := range []string{
		"create trigger t_addStk on stock for insert event addStk as print 'add'",
		"create trigger t_delStk on stock for delete event delStk as print 'del'",
		"create trigger t_or event anyStk = addStk | delStk RECENT as select symbol from stock.inserted",
	} {
		if _, err := cs.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// orRows runs sql and returns the rows t_or's action selected.
	orRows := func(sql string) []sqltypes.Row {
		t.Helper()
		if _, err := cs.Exec(sql); err != nil {
			t.Fatal(err)
		}
		var or *ActionResult
		for i := 0; i < 2; i++ { // the primitive rule and t_or, in either order
			res := waitAction(t, r.agent)
			if res.Rule == "sentineldb.sharma.t_or" {
				or = &res
			}
		}
		if or == nil || or.Err != nil {
			t.Fatalf("%s: t_or did not run: %+v", sql, or)
		}
		return lastRowsOf(or.Results)
	}
	if rows := orRows("insert stock values ('IBM', 50)"); len(rows) != 1 || rows[0][0].Str() != "IBM" {
		t.Fatalf("insert: t_or read %v, want IBM", rows)
	}
	if rows := orRows("delete stock where symbol = 'IBM'"); len(rows) != 0 {
		t.Errorf("delete: t_or read %v from stock.inserted, want nothing", rows)
	}

	if rows := orRows("insert stock values ('T', 20)"); len(rows) != 1 || rows[0][0].Str() != "T" {
		t.Fatalf("second insert: t_or read %v, want T", rows)
	}
	r.agent.mu.Lock()
	info := r.agent.triggers["sentineldb.sharma.t_or"]
	r.agent.mu.Unlock()
	occ := &led.Occ{Event: info.Event, Context: info.Context, Constituents: []led.Primitive{{Op: "tick"}}}
	r.agent.actionq.enqueue(actionJob{info: info, occ: occ, enqueued: r.agent.clock.Now()})
	res := waitAction(t, r.agent)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if rows := lastRowsOf(res.Results); len(rows) != 0 {
		t.Errorf("temporal occurrence: t_or read %v from stock.inserted, want nothing", rows)
	}
}

// lastRowsOf returns the rows of the last result set that has a schema.
func lastRowsOf(results []*sqltypes.ResultSet) []sqltypes.Row {
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].Schema != nil {
			return results[i].Rows
		}
	}
	return nil
}

// Example 2 of the paper, §5.3: composite event addDel = delStk ^ addStk.
func TestExample2CompositeEndToEnd(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")

	setup := []string{
		"create trigger t_addStk on stock for insert event addStk as print 'add'",
		"create trigger t_delStk on stock for delete event delStk as print 'del'",
		`create trigger t_and
event addDel = delStk ^ addStk
RECENT
as
print 'trigger t_and on composite event addDel = delStk ^ addStk'
select symbol, price from stock.inserted`,
	}
	for _, sql := range setup {
		if _, err := cs.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if _, err := cs.Exec("insert stock values ('IBM', 50) insert stock values ('T', 20)"); err != nil {
		t.Fatal(err)
	}
	// Two addStk occurrences so far: t_addStk ran twice; drain them.
	for i := 0; i < 2; i++ {
		res := waitAction(t, r.agent)
		if res.Rule != "sentineldb.sharma.t_addStk" {
			t.Fatalf("unexpected rule %s", res.Rule)
		}
	}
	// Delete completes the AND.
	if _, err := cs.Exec("delete stock where symbol = 'T'"); err != nil {
		t.Fatal(err)
	}
	var andRes ActionResult
	got := map[string]ActionResult{}
	for i := 0; i < 2; i++ { // t_delStk and t_and, order not guaranteed
		res := waitAction(t, r.agent)
		got[res.Rule] = res
	}
	andRes, ok := got["sentineldb.sharma.t_and"]
	if !ok {
		t.Fatalf("t_and never fired: %v", got)
	}
	if andRes.Err != nil {
		t.Fatalf("t_and action error: %v", andRes.Err)
	}
	if len(andRes.Messages) == 0 || !strings.Contains(andRes.Messages[0], "composite event addDel") {
		t.Errorf("t_and messages: %v", andRes.Messages)
	}
	// RECENT context: the materialized stock.inserted context holds the
	// most recent insert ('T', vNo 2).
	var rows int
	var symbol string
	for _, rs := range andRes.Results {
		if rs.Schema != nil && len(rs.Rows) > 0 {
			rows = len(rs.Rows)
			symbol = rs.Rows[0][0].Str()
		}
	}
	if rows != 1 || symbol != "T" {
		t.Errorf("RECENT context rows: %d %q", rows, symbol)
	}
	// SysCompositeEvent row persisted with the expanded expression.
	rs, err := cs.Query("select eventName, eventDescribe from SysCompositeEvent")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || !strings.Contains(rs.Rows[0][1].Str(), "sentineldb.sharma.delStk") {
		t.Errorf("SysCompositeEvent: %v", rs.Rows)
	}
	// sysContext received the constituents' table occurrences.
	rs, err = cs.Query("select tableName, context, vNo from sysContext order by vNo")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Error("sysContext empty after composite action")
	}
}

func TestMultipleTriggersOnOneEvent(t *testing.T) {
	// §2.2 limitation 5 lifted: multiple triggers on the same event, with
	// priority ordering.
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t1 on stock for insert event addStk as print 'one'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("create trigger t2 event addStk 10 as print 'two'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("create trigger t3 event addStk 5 as print 'three'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	var rules []string
	for i := 0; i < 3; i++ {
		res := waitAction(t, r.agent)
		rules = append(rules, res.Rule)
	}
	// Actions run on the action queue's one worker in firing order:
	// priority 10 (t2), then 5 (t3), then 0 (t1).
	want := []string{"sentineldb.sharma.t2", "sentineldb.sharma.t3", "sentineldb.sharma.t1"}
	if fmt.Sprint(rules) != fmt.Sprint(want) {
		t.Errorf("rule order: %v want %v", rules, want)
	}
}

func TestDropECATrigger(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t1 on stock for insert event addStk as print 'one'"); err != nil {
		t.Fatal(err)
	}
	msgs, err := cs.Exec("drop trigger t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 || len(msgs[0].Messages) == 0 || !strings.Contains(msgs[0].Messages[0], "dropped") {
		t.Errorf("drop output: %+v", msgs)
	}
	// The event persists (events outlive triggers); rule is gone.
	if len(r.agent.Triggers()) != 0 {
		t.Errorf("triggers left: %v", r.agent.Triggers())
	}
	if len(r.agent.Events()) != 1 {
		t.Errorf("events: %v", r.agent.Events())
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	r.agent.WaitActions()
	select {
	case res := <-r.agent.ActionDone:
		t.Fatalf("dropped trigger fired: %+v", res)
	default:
	}
	// SysEcaTrigger row removed.
	rs, err := cs.Query("select count(*) from SysEcaTrigger")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int() != 0 {
		t.Error("SysEcaTrigger row not deleted")
	}
	// Dropping an unknown/native trigger is not intercepted; the server's
	// error comes back.
	if _, err := cs.Exec("drop trigger nosuch"); err == nil {
		t.Error("drop of missing trigger succeeded")
	}
	// The event can be reused by a new trigger.
	if _, err := cs.Exec("create trigger t4 event addStk as print 'four'"); err != nil {
		t.Fatal(err)
	}
}

func TestEventReuseAndDuplicateGuards(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t1 on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	// Same event name again → error.
	if _, err := cs.Exec("create trigger t2 on stock for insert event addStk as print 'x'"); err == nil {
		t.Error("duplicate event accepted")
	}
	// A second primitive event on the same (table, op) → error explaining
	// the native one-trigger limitation.
	if _, err := cs.Exec("create trigger t3 on stock for insert event other as print 'x'"); err == nil {
		t.Error("second primitive event on same (table, op) accepted")
	}
	// Same (table, other op) is fine.
	if _, err := cs.Exec("create trigger t4 on stock for delete event delStk as print 'x'"); err != nil {
		t.Error(err)
	}
	// Duplicate trigger name → error.
	if _, err := cs.Exec("create trigger t1 event addStk as print 'x'"); err == nil {
		t.Error("duplicate trigger accepted")
	}
	// Composite over undefined event → error.
	if _, err := cs.Exec("create trigger t5 event comp = addStk ^ ghost as print 'x'"); err == nil {
		t.Error("composite over undefined event accepted")
	}
}

func TestTransparencyPassThrough(t *testing.T) {
	// Fig 1: a client sees the same results through the agent as directly.
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	direct := r.eng.NewSession("sharma")
	if err := direct.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}

	script := `insert stock values ('IBM', 100)
insert stock values ('T', 20)`
	if _, err := cs.Exec(script); err != nil {
		t.Fatal(err)
	}
	throughAgent, err := cs.Query("select symbol, price from stock order by symbol")
	if err != nil {
		t.Fatal(err)
	}
	directRes, err := direct.ExecScript("select symbol, price from stock order by symbol")
	if err != nil {
		t.Fatal(err)
	}
	if throughAgent.Format() != directRes[0].Format() {
		t.Errorf("results differ:\nagent:\n%s\ndirect:\n%s", throughAgent.Format(), directRes[0].Format())
	}
	// Errors pass through too.
	if _, err := cs.Exec("select * from nonexistent"); err == nil {
		t.Error("pass-through error lost")
	}
}

// sentUpstream records every batch text a connection sends.
type sentUpstream struct {
	Upstream
	mu   *sync.Mutex
	sent *[]string
}

func (u sentUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	u.mu.Lock()
	*u.sent = append(*u.sent, sql)
	u.mu.Unlock()
	return u.Upstream.Exec(sql)
}

// TestTransparencyCreateIndex: a client's CREATE INDEX is ordinary SQL to
// the Language Filter (Fig 1) — it reaches the server byte for byte, the
// index exists afterwards, and a repeat fails exactly as it does directly.
func TestTransparencyCreateIndex(t *testing.T) {
	var mu sync.Mutex
	var sent []string
	r := newChaosRig(t, nil, func(c *Config) {
		inner := c.Dial
		c.Dial = func(user, db string) (Upstream, error) {
			up, err := inner(user, db)
			if err != nil {
				return nil, err
			}
			return sentUpstream{Upstream: up, mu: &mu, sent: &sent}, nil
		}
	})
	cs := r.session(t, "sharma", "sentineldb")
	const batch = "create  INDEX stock_price\non stock ( price ) -- client spelling"
	if _, err := cs.Exec(batch); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := sent[len(sent)-1]
	mu.Unlock()
	if want, _, _ := sqlparse.NextBatch(batch); last != want {
		t.Errorf("upstream received %q, client batch is %q", last, want)
	}
	db, _ := r.eng.Catalog().Database("sentineldb")
	tbl, err := db.Table("sharma", "stock", "sharma")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Indexes(); len(got) != 1 || got[0].Name != "stock_price" || got[0].Column != "price" {
		t.Errorf("indexes after gateway create: %+v", got)
	}
	_, viaAgent := cs.Exec(batch)
	direct := r.eng.NewSession("sharma")
	if err := direct.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}
	_, viaDirect := direct.ExecScript(batch)
	if viaAgent == nil || viaDirect == nil || viaAgent.Error() != viaDirect.Error() {
		t.Errorf("repeat: agent %v, direct %v", viaAgent, viaDirect)
	}
}

func TestDeferredCouplingEndToEnd(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t1 on stock for insert event addStk DEFERRED as print 'deferred ran'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-r.agent.ActionDone:
		t.Fatalf("deferred rule ran immediately: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}
	r.agent.FlushDeferred()
	res := waitAction(t, r.agent)
	if len(res.Messages) == 0 || res.Messages[0] != "deferred ran" {
		t.Errorf("deferred action: %+v", res)
	}
}

func TestUseTracking(t *testing.T) {
	r := newRig(t)
	// Seed a second database.
	seed := r.eng.NewSession("li")
	if _, err := seed.ExecScript("create database orders use orders create table po (id int null)"); err != nil {
		t.Fatal(err)
	}
	cs := r.session(t, "li", "sentineldb")
	if _, err := cs.Exec("use orders"); err != nil {
		t.Fatal(err)
	}
	if cs.Database() != "orders" {
		t.Fatalf("db tracking: %q", cs.Database())
	}
	if _, err := cs.Exec("create trigger t_po on po for insert event poAdded as print 'po'"); err != nil {
		t.Fatal(err)
	}
	if got := r.agent.Events(); len(got) != 1 || got[0] != "orders.li.poAdded" {
		t.Errorf("expanded into wrong db: %v", got)
	}
}

func TestRecoveryRestoresRules(t *testing.T) {
	eng := engine.New(catalog.New())
	quiet := func(string, ...any) {}
	a1, err := New(Config{Dial: LocalDialer(eng), NotifyAddr: "-", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetNotifier(func(h string, p int, msg string) error { a1.Deliver(msg); return nil })
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript("create database sentineldb use sentineldb create table stock (symbol varchar(10), price float null)"); err != nil {
		t.Fatal(err)
	}
	cs, err := a1.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"create trigger t_add on stock for insert event addStk as print 'add ran'",
		"create trigger t_del on stock for delete event delStk as print 'del ran'",
		"create trigger t_and event both = addStk ^ delStk CUMULATIVE as print 'and ran'",
	} {
		if _, err := cs.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	cs.Close()
	a1.Close()

	// Restart: a fresh agent over the same (persistent) engine state.
	a2, err := New(Config{Dial: LocalDialer(eng), NotifyAddr: "-", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	eng.SetNotifier(func(h string, p int, msg string) error { a2.Deliver(msg); return nil })

	if got := a2.Events(); len(got) != 3 {
		t.Fatalf("restored events: %v", got)
	}
	if got := a2.Triggers(); len(got) != 3 {
		t.Fatalf("restored triggers: %v", got)
	}
	// The restored rulebase still detects: insert + delete completes the
	// cumulative AND.
	sess := eng.NewSession("sharma")
	_ = sess.Use("sentineldb")
	if _, err := sess.ExecScript("insert stock values ('X', 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecScript("delete stock where symbol = 'X'"); err != nil {
		t.Fatal(err)
	}
	seenRules := map[string]bool{}
	for i := 0; i < 3; i++ {
		res := waitAction(t, a2)
		if res.Err != nil {
			t.Fatalf("restored action failed: %v", res.Err)
		}
		seenRules[res.Rule] = true
	}
	for _, want := range []string{"sentineldb.sharma.t_add", "sentineldb.sharma.t_del", "sentineldb.sharma.t_and"} {
		if !seenRules[want] {
			t.Errorf("rule %s did not fire after recovery (saw %v)", want, seenRules)
		}
	}
}

// TestGatewayTCPEndToEnd is the full paper deployment: SQL server and ECA
// agent as separate TCP services, UDP notifications, a stock client
// connected to the agent's gateway.
func TestGatewayTCPEndToEnd(t *testing.T) {
	srv := server.New(engine.New(catalog.New()))
	srv.Logf = func(string, ...any) {}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a, err := New(Config{
		Dial: TCPDialer(srv.Addr()),
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.ListenGateway("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	c, err := client.Connect(a.GatewayAddr(), client.Options{User: "sharma"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.MustExec(`create database sentineldb
go
use sentineldb
create table stock (symbol varchar(10), price float null)
go`); err != nil {
		t.Fatal(err)
	}
	if err := c.MustExec(example1); err != nil {
		t.Fatal(err)
	}
	if err := c.MustExec("insert stock values ('IBM', 101)"); err != nil {
		t.Fatal(err)
	}
	res := waitAction(t, a)
	if res.Err != nil || !strings.Contains(strings.Join(res.Messages, " "), "addStk occurs") {
		t.Fatalf("action over TCP/UDP: %+v", res)
	}
	// Transparency: the same client connection serves ordinary queries.
	rs, err := c.Query("select count(*) from stock")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int() != 1 {
		t.Errorf("count: %v", rs.Rows)
	}
}
