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
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// Conn is one logged-in connection. It is safe for concurrent use; requests
// are serialized on the wire. Responses are read through one buffer that
// lives as long as the connection, so a small response costs one read.
type Conn struct {
	mu     sync.Mutex // serializes requests; guards r and closed
	conn   net.Conn
	r      *bufio.Reader
	closed bool
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
	if opts.User == "" {
		opts.User = "dbo"
	}
	d := net.Dialer{Timeout: opts.Timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := login(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// login performs the handshake on an open connection.
func login(conn net.Conn, opts Options) (*Conn, error) {
	if err := tds.WritePacket(conn, tds.MarshalLogin(tds.Login{User: opts.User, Database: opts.Database})); err != nil {
		return nil, err
	}
	c := &Conn{conn: conn, r: bufio.NewReader(conn)}
	pkt, err := tds.ReadPacket(c.r)
	if err != nil {
		return nil, err
	}
	ack, err := tds.UnmarshalLoginAck(pkt)
	if err != nil {
		return nil, err
	}
	if !ack.OK {
		return nil, fmt.Errorf("login rejected: %s", ack.Message)
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
	if c.closed {
		return nil, fmt.Errorf("client: %w", net.ErrClosed)
	}
	results, err := c.roundTrip(sql)
	var se *tds.ServerError
	if err != nil && !errors.As(err, &se) {
		c.closeLocked()
	}
	return results, err
}

func (c *Conn) roundTrip(sql string) ([]*sqltypes.ResultSet, error) {
	if err := tds.WritePacket(c.conn, tds.MarshalLanguage(sql)); err != nil {
		return nil, err
	}
	return tds.ReadResponse(c.r)
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

// Close shuts the connection down. Closing twice is a no-op.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeLocked()
}

func (c *Conn) closeLocked() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}
