package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	srv := New(engine.New(catalog.New()))
	srv.Logf = func(string, ...any) {}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestLoginAndExec(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr(), client.Options{User: "sharma"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.MustExec("create database db"); err != nil {
		t.Fatal(err)
	}
	if err := c.MustExec("use db create table t (a int null)"); err != nil {
		t.Fatal(err)
	}
	if err := c.MustExec("insert t values (1) insert t values (2)"); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("select a from t order by a desc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int() != 2 {
		t.Errorf("rows: %v", rs.Rows)
	}
}

func TestLoginWithDatabase(t *testing.T) {
	srv := startServer(t)
	seed, err := client.Connect(srv.Addr(), client.Options{User: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.MustExec("create database appdb"); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	c, err := client.Connect(srv.Addr(), client.Options{User: "sa", Database: "appdb"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Query("select db_name()")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Str() != "appdb" {
		t.Errorf("db: %v", rs.Rows[0])
	}
	// Login to missing database fails cleanly.
	if _, err := client.Connect(srv.Addr(), client.Options{User: "sa", Database: "missing"}); err == nil {
		t.Error("login to missing db succeeded")
	}
}

func TestServerErrorPropagation(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("select * from nonexistent")
	var se *tds.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}
	// Connection still usable after an error.
	if err := c.MustExec("create database ok"); err != nil {
		t.Errorf("post-error exec: %v", err)
	}
}

// relaySession answers every request with a server error that something
// on the way wrapped, as the gateway's pass-through and ECA paths can.
type relaySession struct{}

func (relaySession) Exec(string) ([]*sqltypes.ResultSet, error) {
	return nil, fmt.Errorf("agent: creating system tables in db: %w", &tds.ServerError{Msg: "table t not found"})
}
func (relaySession) Close() error { return nil }

// TestRelayedServerErrorKeepsItsText: an error another server raised goes
// back to the client with that server's text alone.
func TestRelayedServerErrorKeepsItsText(t *testing.T) {
	s := NewOpenServer(func(user, db string) (Session, error) { return relaySession{}, nil })
	s.Logf = func(string, ...any) {}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := client.Connect(s.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("select 1")
	var se *tds.ServerError
	if !errors.As(err, &se) || se.Msg != "table t not found" {
		t.Errorf("client got %v, want the server error %q", err, "table t not found")
	}
}

func TestMessagesAndPrint(t *testing.T) {
	srv := startServer(t)
	c, _ := client.Connect(srv.Addr(), client.Options{})
	defer c.Close()
	msgs, err := c.Messages("print 'one' print 'two'")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0] != "one" || msgs[1] != "two" {
		t.Errorf("messages: %v", msgs)
	}
}

func TestTriggerOverWire(t *testing.T) {
	srv := startServer(t)
	c, _ := client.Connect(srv.Addr(), client.Options{User: "sharma"})
	defer c.Close()
	if err := c.MustExec(`create database db
go
use db
create table stock (symbol varchar(10), price float null)
go
create trigger tg on stock for insert as
print 'trigger fired'
select * from inserted
go`); err != nil {
		t.Fatal(err)
	}
	results, err := c.Exec("use db insert stock values ('IBM', 1)")
	if err != nil {
		t.Fatal(err)
	}
	var sawMsg, sawRow bool
	for _, rs := range results {
		for _, m := range rs.Messages {
			if m == "trigger fired" {
				sawMsg = true
			}
		}
		if rs.Schema != nil && len(rs.Rows) == 1 {
			sawRow = true
		}
	}
	if !sawMsg || !sawRow {
		t.Errorf("trigger output over wire: msg=%v row=%v (%d sets)", sawMsg, sawRow, len(results))
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t)
	setup, _ := client.Connect(srv.Addr(), client.Options{User: "sa"})
	if err := setup.MustExec("create database db use db create table t (g int null, i int null)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const clients, rows = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Connect(srv.Addr(), client.Options{User: "sa", Database: "db"})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rows; i++ {
				if err := c.MustExec(fmt.Sprintf("insert t values (%d, %d)", g, i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, _ := client.Connect(srv.Addr(), client.Options{User: "sa", Database: "db"})
	defer c.Close()
	rs, err := c.Query("select count(*) from t")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int() != clients*rows {
		t.Errorf("count = %v, want %d", rs.Rows[0][0], clients*rows)
	}
}

func TestCheckpointAndReload(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "server.snap")

	srv := startServer(t)
	srv.SnapshotPath = snap
	c, _ := client.Connect(srv.Addr(), client.Options{User: "sa"})
	if err := c.MustExec("create database db use db create table t (a int null) insert t values (7)"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	cat, err := catalog.LoadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(engine.New(cat))
	srv2.Logf = func(string, ...any) {}
	if err := srv2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	c2, err := client.Connect(srv2.Addr(), client.Options{User: "sa", Database: "db"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rs, err := c2.Query("select a from t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 7 {
		t.Errorf("restored rows: %v", rs.Rows)
	}
}

func TestCloseIdempotentAndConnectAfterClose(t *testing.T) {
	srv := startServer(t)
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Connect(addr, client.Options{}); err == nil {
		t.Error("connect after close succeeded")
	}
}
