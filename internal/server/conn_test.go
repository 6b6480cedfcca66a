package server

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/sqltypes"
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

// scriptedSession answers each request from a fixed table and records the
// SQL text it was handed.
type scriptedSession struct {
	replies map[string][]*sqltypes.ResultSet
	got     []string
}

func (s *scriptedSession) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	if s.got != nil {
		s.got = append(s.got, sql)
	}
	return s.replies[sql], nil
}

func (s *scriptedSession) Close() error { return nil }

// startScripted serves sess on one end of a net.Pipe and returns a
// logged-in client on the other; the cleanup closes both and waits for
// the connection loop to end.
func startScripted(t *testing.T, sess Session) *client.Conn {
	t.Helper()
	srv := NewOpenServer(func(string, string) (Session, error) { return sess, nil })
	srv.Logf = func(string, ...any) {}
	cli, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(conn)
	}()
	c, err := client.NewConn(cli, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); <-done })
	return c
}

// TestAllocsWireRoundTrip holds a warm round trip through client.Conn and
// the connection loop to the values it returns. The requests, responses
// and decode buffers are the connection's own and reused; what is left is
// the SQL text the server hands its session and, on the client, the
// result slice, the result set, the slice holding its rows or messages,
// each row, and each string value or message.
func TestAllocsWireRoundTrip(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "symbol", Type: sqltypes.VarChar(10)},
		sqltypes.Column{Name: "price", Type: sqltypes.Float, Nullable: true},
	)
	sess := &scriptedSession{replies: map[string][]*sqltypes.ResultSet{
		"print 'rule fired'": {{Messages: []string{"rule fired"}}},
		"select symbol, price from stock": {{
			Schema:       schema,
			Rows:         []sqltypes.Row{{sqltypes.NewString("IBM"), sqltypes.NewFloat(101)}},
			RowsAffected: 1,
		}},
	}}
	c := startScripted(t, sess)
	for _, tc := range []struct {
		sql  string
		want float64
	}{
		{"print 'rule fired'", 5},              // SQL text; results, set, messages, message
		{"select symbol, price from stock", 6}, // SQL text; results, set, rows, row, "IBM"
	} {
		if _, err := c.Exec(tc.sql); err != nil { // warm: buffers sized, schema cached
			t.Fatal(err)
		}
		var err error
		got := testing.AllocsPerRun(200, func() {
			_, err = c.Exec(tc.sql)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got > tc.want {
			t.Errorf("%q: %.1f allocations per round trip, want at most %.0f", tc.sql, got, tc.want)
		}
	}
}

// TestRequestTextIsItsOwn: the SQL text a session is handed never aliases
// the connection's read buffers, which the next request overwrites. Each
// pair of requests has the same length, so the second lands where the
// first was: in the read buffer for a short one, in the reused scratch for
// one larger than the read buffer.
func TestRequestTextIsItsOwn(t *testing.T) {
	sess := &scriptedSession{got: []string{}}
	c := startScripted(t, sess)
	var sent []string
	for _, n := range []int{8, 5000} {
		for _, x := range []string{"a", "z"} {
			sql := "print '" + strings.Repeat(x, n) + "'"
			if _, err := c.Exec(sql); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, sql)
		}
	}
	if len(sess.got) != len(sent) {
		t.Fatalf("session ran %d requests, want %d", len(sess.got), len(sent))
	}
	for i := range sent {
		if sess.got[i] != sent[i] {
			t.Errorf("request %d reads %.20q... after later requests, want %.20q...", i, sess.got[i], sent[i])
		}
	}
}
