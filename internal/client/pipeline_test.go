package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// largestWriteConn is a countingConn that also records its largest write.
type largestWriteConn struct {
	countingConn
	mu      sync.Mutex
	largest int
}

func (c *largestWriteConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.largest = max(c.largest, len(b))
	c.mu.Unlock()
	return c.countingConn.Write(b)
}

// dialCounted connects to addr over loopback TCP (net.Pipe has no buffer,
// so a pipelined write would wait on the server's unread answers) and
// logs in through a conn that counts its calls.
func dialCounted(t *testing.T, addr string) (*Conn, *largestWriteConn) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &largestWriteConn{countingConn: countingConn{Conn: raw}}
	c, err := NewConn(cc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cc
}

type reply struct {
	msgs []string
	err  error
}

func pipeline(c *Conn, scripts []string) ([]reply, int, error) {
	var got []reply
	n, err := c.Pipeline(scripts, func(i int, results []*sqltypes.ResultSet, err error) {
		if i != len(got) {
			panic(fmt.Sprintf("reply %d arrived as number %d", i, len(got)))
		}
		var msgs []string
		for _, rs := range results {
			msgs = append(msgs, rs.Messages...)
		}
		got = append(got, reply{msgs, err})
	})
	return got, n, err
}

// TestPipelineOneWrite: four scripts go out in one write, their replies
// come back in order, and a server error is final for its script alone.
func TestPipelineOneWrite(t *testing.T) {
	c, cc := dialCounted(t, startServer(t))
	cc.writes.Store(0)
	got, n, err := pipeline(c, []string{"print 'one'", "print 'two' select * from nope", "print 'three'", "print 'four'"})
	if err != nil || n != 4 {
		t.Fatalf("pipeline: %d replies, %v", n, err)
	}
	if w := cc.writes.Load(); w != 1 {
		t.Errorf("4 small scripts cost %d writes, want 1", w)
	}
	for i, want := range []string{"one", "two", "three", "four"} {
		if len(got[i].msgs) != 1 || got[i].msgs[0] != want {
			t.Errorf("reply %d: %v, want [%s]", i, got[i].msgs, want)
		}
		var se *tds.ServerError
		if failed := errors.As(got[i].err, &se); failed != (i == 1) {
			t.Errorf("reply %d error: %v", i, got[i].err)
		}
	}
	// The connection is still usable.
	if msgs, err := c.Messages("print 'after'"); err != nil || len(msgs) != 1 {
		t.Errorf("exec after a pipeline: %v %v", msgs, err)
	}
}

// TestPipelineWritesAreCapped: requests past tds.WriteChunk go out in
// further writes, each after the replies owed so far are read.
func TestPipelineWritesAreCapped(t *testing.T) {
	c, cc := dialCounted(t, startServer(t))
	cc.writes.Store(0)
	pad := strings.Repeat("x", 20<<10)
	scripts := make([]string, 10)
	for i := range scripts {
		scripts[i] = fmt.Sprintf("print '%d' -- %s", i, pad)
	}
	got, n, err := pipeline(c, scripts)
	if err != nil || n != len(scripts) {
		t.Fatalf("pipeline: %d replies, %v", n, err)
	}
	for i := range got {
		if len(got[i].msgs) != 1 || got[i].msgs[0] != fmt.Sprint(i) || got[i].err != nil {
			t.Fatalf("reply %d: %+v", i, got[i])
		}
	}
	if cc.largest > tds.WriteChunk {
		t.Errorf("largest write %d bytes, cap %d", cc.largest, tds.WriteChunk)
	}
	if w := cc.writes.Load(); w < 4 || w > 5 {
		t.Errorf("%d requests of 20 KiB took %d writes, want 4 or 5", len(scripts), w)
	}
}

// TestPipelineTransportError: a connection that breaks after the first
// reply reports one reply and the error, and is closed.
func TestPipelineTransportError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			serveRaw(conn, packets(t, tds.MarshalInfo("first"), tds.MarshalDone(0, false), tds.MarshalDone(0, true)))
		}
	}()
	c, _ := dialCounted(t, ln.Addr().String())
	got, n, err := pipeline(c, []string{"a", "b", "c"})
	if n != 1 || len(got) != 1 || got[0].msgs[0] != "first" || err == nil {
		t.Fatalf("pipeline over a cut conn: %d replies %+v, %v", n, got, err)
	}
	if _, err := c.Exec("select 1"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("exec after a cut pipeline: %v, want net.ErrClosed", err)
	}
}
