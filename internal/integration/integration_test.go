// Package integration exercises the complete deployment across component
// restarts — the durability story the paper's Persistent Manager exists
// for: events and rules live in the database, so after BOTH the server and
// the agent restart, the whole active behaviour is restored from the
// snapshot alone.
package integration

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/server"
)

func quiet(string, ...any) {}

type deployment struct {
	srv   *server.Server
	agent *agent.Agent
}

func startDeployment(t *testing.T, cat *catalog.Catalog, snapshot string) *deployment {
	t.Helper()
	srv := server.New(engine.New(cat))
	srv.Logf = quiet
	srv.SnapshotPath = snapshot
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(agent.Config{Dial: agent.TCPDialer(srv.Addr()), Logf: quiet})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if err := a.ListenGateway("127.0.0.1:0"); err != nil {
		a.Close()
		srv.Close()
		t.Fatal(err)
	}
	return &deployment{srv: srv, agent: a}
}

func (d *deployment) stop() {
	d.agent.Close()
	d.srv.Close()
}

func (d *deployment) connect(t *testing.T, user, db string) *client.Conn {
	t.Helper()
	c, err := client.Connect(d.agent.GatewayAddr(), client.Options{User: user, Database: db})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitAction(t *testing.T, a *agent.Agent) agent.ActionResult {
	t.Helper()
	select {
	case res := <-a.ActionDone:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for action")
		return agent.ActionResult{}
	}
}

// TestFullRestartDurability: define rules, checkpoint, kill everything,
// restart server from snapshot and a brand-new agent — the rulebase and
// its behaviour survive.
func TestFullRestartDurability(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "server.snap")

	d1 := startDeployment(t, catalog.New(), snap)
	c := d1.connect(t, "sharma", "")
	if err := c.MustExec(`create database sentineldb
go
use sentineldb
create table stock (symbol varchar(10), price float null)
go`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"use sentineldb create trigger t_add on stock for insert event addStk as print 'add fired'",
		"use sentineldb create trigger t_del on stock for delete event delStk as print 'del fired'",
		`use sentineldb
go
create trigger t_and event both = addStk ^ delStk CUMULATIVE as
print 'composite fired'
select symbol from stock.inserted
go`,
	} {
		if err := c.MustExec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Fire once before the restart to advance vNo state.
	if err := c.MustExec("use sentineldb insert stock values ('PRE', 1)"); err != nil {
		t.Fatal(err)
	}
	waitAction(t, d1.agent)
	c.Close()
	if err := d1.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d1.stop()

	// Cold restart: catalog from disk, brand-new agent process.
	cat, err := catalog.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	d2 := startDeployment(t, cat, snap)
	defer d2.stop()
	if got := len(d2.agent.Triggers()); got != 3 {
		t.Fatalf("restored triggers: %d (%v)", got, d2.agent.Triggers())
	}

	c2 := d2.connect(t, "sharma", "sentineldb")
	defer c2.Close()
	if err := c2.MustExec("insert stock values ('POST', 2)"); err != nil {
		t.Fatal(err)
	}
	res := waitAction(t, d2.agent)
	if res.Err != nil || !strings.Contains(strings.Join(res.Messages, " "), "add fired") {
		t.Fatalf("primitive rule after restart: %+v", res)
	}
	// vNo continuity: the restored SysPrimitiveEvent counter keeps rising.
	rs, err := c2.Query("select vNo from SysPrimitiveEvent where eventName = 'sentineldb.sharma.addStk'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int() != 2 {
		t.Errorf("vNo after restart: %v (state reset?)", rs.Rows[0])
	}
	// The composite still detects across the restart boundary for new
	// occurrences.
	if err := c2.MustExec("delete stock where symbol = 'POST'"); err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for i := 0; i < 2; i++ { // t_del + t_and
		res := waitAction(t, d2.agent)
		rules[res.Rule[strings.LastIndex(res.Rule, ".")+1:]] = true
	}
	if !rules["t_del"] || !rules["t_and"] {
		t.Errorf("post-restart composite: %v", rules)
	}
}

// TestScaleSmoke: dozens of events and rules across several tables and
// contexts, hammered concurrently; every action completes and the counts
// add up.
func TestScaleSmoke(t *testing.T) {
	d := startDeployment(t, catalog.New(), "")
	defer d.stop()
	c := d.connect(t, "ops", "")
	if err := c.MustExec("create database load"); err != nil {
		t.Fatal(err)
	}
	const tables = 8
	for i := 0; i < tables; i++ {
		if err := c.MustExec(fmt.Sprintf("use load create table t%d (a int null)", i)); err != nil {
			t.Fatal(err)
		}
		if err := c.MustExec(fmt.Sprintf(
			"use load create trigger trg%d on t%d for insert event ev%d as print 'p%d'", i, i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A second rule per even event, plus one composite spanning two tables.
	extra := 0
	for i := 0; i < tables; i += 2 {
		if err := c.MustExec(fmt.Sprintf(
			"use load create trigger xtrg%d event ev%d CHRONICLE as print 'x%d'", i, i, i)); err != nil {
			t.Fatal(err)
		}
		extra++
	}
	if err := c.MustExec("use load create trigger cross event crossEv = ev0 ^ ev1 CHRONICLE as print 'cross'"); err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	// The last action can be reported before its insert returns, so the
	// test waits for the writer before the deployment stops under it.
	writer := make(chan struct{})
	defer func() { <-writer }()
	go func() {
		defer close(writer)
		conn := d.connect(t, "ops", "load")
		defer conn.Close()
		for r := 0; r < rounds; r++ {
			for i := 0; i < tables; i++ {
				if err := conn.MustExec(fmt.Sprintf("insert t%d values (%d)", i, r)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}
	}()

	// Expected actions: tables rules (8/insert-round) + extra (4/round) +
	// cross (1/round, chronicle pairs each round's ev0+ev1).
	want := rounds * (tables + extra + 1)
	counts := map[string]int{}
	for i := 0; i < want; i++ {
		res := waitAction(t, d.agent)
		if res.Err != nil {
			t.Fatalf("action failed: %v", res.Err)
		}
		counts[res.Rule]++
	}
	if got := counts["load.ops.cross"]; got != rounds {
		t.Errorf("cross composite fired %d, want %d", got, rounds)
	}
	for i := 0; i < tables; i++ {
		if got := counts[fmt.Sprintf("load.ops.trg%d", i)]; got != rounds {
			t.Errorf("trg%d fired %d, want %d", i, got, rounds)
		}
	}
	stats := d.agent.Stats()
	if stats.ActionsRun < uint64(want) {
		t.Errorf("stats.ActionsRun = %d, want >= %d", stats.ActionsRun, want)
	}
	if stats.NotificationsDropped != 0 {
		t.Errorf("dropped notifications: %d", stats.NotificationsDropped)
	}
}

// TestIsqlStyleSessionThroughAgent drives the ecasql usage pattern: one
// connection, GO-separated batches, introspection via sp_help.
func TestIsqlStyleSessionThroughAgent(t *testing.T) {
	d := startDeployment(t, catalog.New(), "")
	defer d.stop()
	c := d.connect(t, "sharma", "")
	defer c.Close()
	script := `create database sentineldb
go
use sentineldb
create table stock (symbol varchar(10), price float null)
go
insert stock values ('IBM', 100)
insert stock values ('T', 20)
go
select symbol, price from stock order by price desc
go
exec sp_help stock
go`
	results, err := c.Exec(script)
	if err != nil {
		t.Fatal(err)
	}
	var rowSets int
	for _, rs := range results {
		if rs.Schema != nil && len(rs.Rows) > 0 {
			rowSets++
		}
	}
	if rowSets != 2 { // the SELECT and the sp_help description
		t.Errorf("row-bearing result sets: %d", rowSets)
	}
}
