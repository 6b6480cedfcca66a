// Package client is the Open Client analog: a small library programs use
// to talk to the SQL server or — identically and transparently — to the
// ECA agent's gateway. It is the only API the example applications need.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// Conn is one logged-in connection. It is safe for concurrent use; requests
// are serialized on the wire. Requests are framed into one buffer and
// responses read through another, both living as long as the connection,
// so a small response costs one read and a round trip allocates only the
// values it returns.
type Conn struct {
	mu   sync.Mutex // serializes requests; guards rd and wbuf
	conn net.Conn
	rd   *tds.Reader
	wbuf []byte // requests are framed here; kept up to tds.WriteChunk bytes
	// closed is set once by Close, which never takes mu: closing the
	// socket is how another goroutine unblocks an Exec that waits on a
	// silent server.
	closed atomic.Bool
}

// Options configures Connect.
type Options struct {
	// User is the login name; defaults to "dbo".
	User string
	// Database is an optional initial database.
	Database string
	// Timeout bounds the dial; zero means no timeout.
	Timeout time.Duration
}

// Connect dials addr and performs the login handshake.
func Connect(addr string, opts Options) (*Conn, error) {
	d := net.Dialer{Timeout: opts.Timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewConn(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewConn performs the login handshake on an open connection; opts.Timeout
// is not used. On success the returned Conn owns conn; on failure the
// caller still does.
func NewConn(conn net.Conn, opts Options) (*Conn, error) {
	if opts.User == "" {
		opts.User = "dbo"
	}
	if err := tds.WritePacket(conn, tds.MarshalLogin(tds.Login{User: opts.User, Database: opts.Database})); err != nil {
		return nil, err
	}
	c := &Conn{conn: conn, rd: tds.NewReader(bufio.NewReader(conn))}
	pkt, err := c.rd.Next()
	if err != nil {
		return nil, err
	}
	ack, err := tds.UnmarshalLoginAck(pkt)
	if err != nil {
		return nil, err
	}
	if !ack.OK {
		return nil, &tds.LoginRejected{Msg: ack.Message}
	}
	return c, nil
}

// Exec sends a SQL script (GO-separated batches allowed) and materializes
// the full response. A server-reported error is returned as
// *tds.ServerError together with the results that preceded it. Any other
// error leaves the stream at an unknown offset, so it closes the
// connection: every later Exec fails with net.ErrClosed instead of
// reading the rest of this response as its own.
func (c *Conn) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, fmt.Errorf("client: %w", net.ErrClosed)
	}
	results, err := c.roundTrip(sql)
	if err != nil && !serverError(err) {
		c.Close()
	}
	return results, err
}

// serverError reports whether err is one the server sent. It is only
// called on an error: the target errors.As needs escapes, and would cost
// every successful call an allocation.
func serverError(err error) bool {
	var se *tds.ServerError
	return errors.As(err, &se)
}

func (c *Conn) roundTrip(sql string) ([]*sqltypes.ResultSet, error) {
	buf, err := tds.AppendLanguage(c.wbuf[:0], sql)
	c.keep(buf)
	if err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(buf); err != nil {
		return nil, err
	}
	return c.rd.ReadResponse()
}

// keep holds on to a request buffer for the next request, unless one
// oversized script grew it past tds.WriteChunk.
func (c *Conn) keep(buf []byte) {
	if cap(buf) > tds.WriteChunk {
		buf = nil
	}
	c.wbuf = buf[:0]
}

// Pipeline sends the scripts in order without waiting for each answer,
// then reads the responses in order, calling reply for each as it
// arrives; err is nil or the *tds.ServerError that script raised, and a
// server error is final for its script alone. The server runs one
// connection's requests in arrival order. Requests are framed into one
// buffer and written together, at most tds.WriteChunk bytes per write
// (one script more if it alone is larger), and the responses they are
// owed are read before the next write, so a write never waits on
// responses nobody reads. Pipeline returns how many responses it read.
// A transport error stops it and closes the connection, as in Exec, and
// is returned.
func (c *Conn) Pipeline(scripts []string, reply func(i int, results []*sqltypes.ResultSet, err error)) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return 0, fmt.Errorf("client: %w", net.ErrClosed)
	}
	read := 0
	for read < len(scripts) {
		buf := c.wbuf[:0]
		sent := read
		for sent < len(scripts) {
			b, err := tds.AppendLanguage(buf, scripts[sent])
			if err != nil || sent > read && len(b) > tds.WriteChunk {
				if sent > read {
					break // send what is framed; this script goes first in the next write
				}
				c.keep(b)
				return read, err
			}
			buf = b
			sent++
		}
		c.keep(buf)
		if _, err := c.conn.Write(buf); err != nil {
			c.Close()
			return read, err
		}
		for ; read < sent; read++ {
			results, err := c.rd.ReadResponse()
			if err != nil && !serverError(err) {
				c.Close()
				return read, err
			}
			reply(read, results, err)
		}
	}
	return read, nil
}

// MustExec is Exec for program setup paths: it returns only the first
// error.
func (c *Conn) MustExec(sql string) error {
	_, err := c.Exec(sql)
	return err
}

// Query runs sql and returns the last result set that has a schema, which
// is the common "run one SELECT" case.
func (c *Conn) Query(sql string) (*sqltypes.ResultSet, error) {
	results, err := c.Exec(sql)
	if err != nil {
		return nil, err
	}
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].Schema != nil {
			return results[i], nil
		}
	}
	return &sqltypes.ResultSet{}, nil
}

// Messages runs sql and returns all informational messages (PRINT output,
// trigger chatter) in order.
func (c *Conn) Messages(sql string) ([]string, error) {
	results, err := c.Exec(sql)
	var msgs []string
	for _, rs := range results {
		msgs = append(msgs, rs.Messages...)
	}
	return msgs, err
}

// Close shuts the connection down without waiting for an Exec in
// progress, which then fails. Closing twice is a no-op.
func (c *Conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	return c.conn.Close()
}
