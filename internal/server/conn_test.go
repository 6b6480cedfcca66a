package server

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/tds"
)

// TestDisconnectRollsBackOpenTransaction: a client that drops inside a
// transaction leaves none of its changes behind, as on the original
// server.
func TestDisconnectRollsBackOpenTransaction(t *testing.T) {
	srv := startServer(t)
	c, err := client.Connect(srv.Addr(), client.Options{User: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.MustExec("create database db\nuse db\ncreate table t (a int)"); err != nil {
		t.Fatal(err)
	}
	dropped, err := client.Connect(srv.Addr(), client.Options{User: "sa", Database: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dropped.MustExec("begin tran\ninsert t values (1)"); err != nil {
		t.Fatal(err)
	}
	dropped.Close()
	// The server notices the drop asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs, err := c.Query("select count(*) from db..t")
		if err != nil {
			t.Fatal(err)
		}
		n := rs.Rows[0][0].Int()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("count(*) = %d after the client dropped mid-transaction, want 0", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingConn counts the Read calls that returned.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.reads.Add(1)
	return n, err
}

// TestReadsPerRequest holds the server to one read per small request.
func TestReadsPerRequest(t *testing.T) {
	srv := New(engine.New(catalog.New()))
	srv.Logf = func(string, ...any) {}
	cli, conn := net.Pipe()
	cc := &countingConn{Conn: conn}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(cc)
	}()
	defer func() { cli.Close(); <-done }()
	if err := tds.WritePacket(cli, tds.MarshalLogin(tds.Login{User: "sa"})); err != nil {
		t.Fatal(err)
	}
	if _, err := tds.ReadPacket(cli); err != nil {
		t.Fatal(err)
	}
	before := cc.reads.Load()
	const requests = 10
	for i := 0; i < requests; i++ {
		if err := tds.WritePacket(cli, tds.MarshalLanguage("select 1")); err != nil {
			t.Fatal(err)
		}
		if _, err := tds.ReadResponse(cli); err != nil {
			t.Fatal(err)
		}
	}
	if got := cc.reads.Load() - before; got != requests {
		t.Errorf("%d small requests cost %d reads, want %d", requests, got, requests)
	}
}
