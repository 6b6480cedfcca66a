package agent

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/tds"
)

// TestGatewayDisconnectRollsBack: a client that drops mid-transaction
// through the gateway leaves none of its changes behind.
func TestGatewayDisconnectRollsBack(t *testing.T) {
	srv := server.New(engine.New(catalog.New()))
	srv.Logf = func(string, ...any) {}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, err := New(Config{Dial: TCPDialer(srv.Addr()), NotifyAddr: "-", Logf: func(string, ...any) {}})
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
	if err := c.MustExec("create database sentineldb\nuse sentineldb\ncreate table t (a int)"); err != nil {
		t.Fatal(err)
	}
	dropped, err := client.Connect(a.GatewayAddr(), client.Options{User: "sharma", Database: "sentineldb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := dropped.MustExec("begin tran\ninsert t values (1)"); err != nil {
		t.Fatal(err)
	}
	dropped.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs, err := c.Query("select count(*) from t")
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

// TestClientSessionCloseRollsBack: an in-process session closed inside a
// transaction leaves none of its changes behind.
func TestClientSessionCloseRollsBack(t *testing.T) {
	r := newRig(t)
	cs, err := r.agent.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("begin tran\ninsert stock values ('IBM', 101)"); err != nil {
		t.Fatal(err)
	}
	cs.Close()
	rs, err := r.session(t, "sharma", "sentineldb").Query("select count(*) from stock")
	if err != nil {
		t.Fatal(err)
	}
	if n := rs.Rows[0][0].Int(); n != 0 {
		t.Errorf("count(*) = %d after the session closed mid-transaction, want 0", n)
	}
}

// readCountingConn counts the Read calls that returned.
type readCountingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCountingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.reads.Add(1)
	return n, err
}

// TestReadsPerRequest holds the gateway to one read per small request.
func TestReadsPerRequest(t *testing.T) {
	r := newRig(t)
	g := &gateway{agent: r.agent, conns: make(map[net.Conn]struct{})}
	cli, conn := net.Pipe()
	cc := &readCountingConn{Conn: conn}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.serve(cc)
	}()
	defer func() { cli.Close(); <-done }()
	if err := tds.WritePacket(cli, tds.MarshalLogin(tds.Login{User: "sharma", Database: "sentineldb"})); err != nil {
		t.Fatal(err)
	}
	if _, err := tds.ReadPacket(cli); err != nil {
		t.Fatal(err)
	}
	before := cc.reads.Load()
	const requests = 10
	for i := 0; i < requests; i++ {
		if err := tds.WritePacket(cli, tds.MarshalLanguage("select count(*) from stock")); err != nil {
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
