package client

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// countingConn counts the Read and Write calls that reach the socket.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// serveRaw accepts a login on conn, then answers each request with the
// next canned response, written as it is in one Write, and closes conn
// when the responses run out or the client goes away.
func serveRaw(conn net.Conn, responses ...[]byte) {
	defer conn.Close()
	if _, err := tds.ReadPacket(conn); err != nil {
		return
	}
	if err := tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{OK: true})); err != nil {
		return
	}
	for _, resp := range responses {
		if _, err := tds.ReadPacket(conn); err != nil {
			return
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
	}
}

// packets frames a raw token stream.
func packets(t *testing.T, ps ...tds.Packet) []byte {
	t.Helper()
	var buf []byte
	for _, p := range ps {
		var err error
		if buf, err = tds.AppendPacket(buf, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestReadsPerResponse holds one Exec whose response is under the read
// buffer to one Write for the request and one Read for the response.
func TestReadsPerResponse(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "symbol", Type: sqltypes.VarChar(10)},
		sqltypes.Column{Name: "price", Type: sqltypes.Float, Nullable: true},
	)
	resp := packets(t,
		tds.MarshalRowFmt(schema),
		tds.MarshalRow(sqltypes.Row{sqltypes.NewString("IBM"), sqltypes.NewFloat(101)}),
		tds.MarshalRow(sqltypes.Row{sqltypes.NewString("SUN"), sqltypes.Null}),
		tds.MarshalInfo("rule fired"),
		tds.MarshalDone(2, false),
		tds.MarshalDone(0, true),
	)
	if len(resp) >= 4096 {
		t.Fatalf("response is %d bytes, want under 4 KiB", len(resp))
	}
	cli, srv := net.Pipe()
	go serveRaw(srv, resp)
	cc := &countingConn{Conn: cli}
	c, err := login(cc, Options{User: "dbo"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc.reads.Store(0)
	cc.writes.Store(0)
	results, err := c.Exec("select symbol, price from stock")
	if err != nil || len(results) != 1 || len(results[0].Rows) != 2 {
		t.Fatalf("exec: %v %v", results, err)
	}
	if w, r := cc.writes.Load(), cc.reads.Load(); w != 1 || r != 1 {
		t.Errorf("one %d-byte response cost %d writes and %d reads, want 1 and 1", len(resp), w, r)
	}
}

// TestBrokenResponseClosesConn: a response that fails to decode leaves the
// stream mid-response, so the connection must close rather than hand the
// leftover tokens to the next request as its answer.
func TestBrokenResponseClosesConn(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "n", Type: sqltypes.Int})
	first := packets(t,
		tds.MarshalRowFmt(schema),
		tds.Packet{Type: tds.PktRow, Payload: []byte{0x80}}, // truncated cell count
		tds.MarshalInfo("stale from request 1"),
		tds.MarshalDone(1, false),
		tds.MarshalDone(0, true),
	)
	second := packets(t, tds.MarshalInfo("fresh from request 2"), tds.MarshalDone(0, false), tds.MarshalDone(0, true))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			serveRaw(conn, first, second)
		}
	}()
	c, err := Connect(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Exec("select n from t")
	var se *tds.ServerError
	if err == nil || errors.As(err, &se) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("first exec: want a decode error, got %v", err)
	}
	for i := 0; i < 2; i++ {
		msgs, err := c.Messages("select 1")
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("exec after a broken response: got %q, %v; want net.ErrClosed", msgs, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Errorf("close after a broken response: %v", err)
	}
}

// TestCloseIsIdempotent: closing a closed connection is a no-op, and Exec
// on it reports net.ErrClosed.
func TestCloseIsIdempotent(t *testing.T) {
	cli, srv := net.Pipe()
	go serveRaw(srv)
	c, err := login(cli, Options{User: "dbo"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := c.Exec("select 1"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("exec after close: %v", err)
	}
}
