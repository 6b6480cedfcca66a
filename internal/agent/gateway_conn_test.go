package agent

import (
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/server"
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
