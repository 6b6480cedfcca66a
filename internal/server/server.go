// Package server serves the tds protocol over TCP. Like Sybase's Open
// Server library it is one connection loop with two users: the SQL server
// (New), the reproduction's stand-in for the Sybase SQL Server process,
// and the ECA agent's gateway. The agent connects to the SQL server
// exactly the way any client does.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"

	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// Session runs one connection's requests. A login opens it, and the end
// of the connection closes it.
type Session interface {
	Exec(sql string) ([]*sqltypes.ResultSet, error)
	Close() error
}

// Opener opens the session a login asks for: user, positioned in db when
// db is not "".
type Opener func(user, db string) (Session, error)

// OpenServer accepts tds connections and serves each on the Session its
// login opens: one accept loop, one connection set and one login/request
// loop, whatever runs the requests.
type OpenServer struct {
	open Opener

	mu       sync.Mutex
	listener net.Listener          // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu
	closed   bool                  // guarded by mu
	wg       sync.WaitGroup

	// Logf receives diagnostics; defaults to log.Printf. Set to a no-op in
	// tests.
	Logf func(format string, args ...any)
}

// NewOpenServer creates a server whose logins open sessions with open.
func NewOpenServer(open Opener) *OpenServer {
	return &OpenServer{
		open:  open,
		conns: make(map[net.Conn]struct{}),
		Logf:  log.Printf,
	}
}

// Server is the SQL server: an OpenServer whose logins open engine
// sessions.
type Server struct {
	*OpenServer
	eng *engine.Engine

	// SnapshotPath, when set, is written on Checkpoint().
	SnapshotPath string
}

// New creates a server over the engine.
func New(eng *engine.Engine) *Server {
	open := func(user, db string) (Session, error) {
		sess, err := eng.OpenSession(user, db)
		if err != nil {
			return nil, err
		}
		return engineSession{sess}, nil
	}
	return &Server{OpenServer: NewOpenServer(open), eng: eng}
}

// engineSession runs each request as a GO-separated script.
type engineSession struct{ *engine.Session }

func (s engineSession) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	return s.ExecScript(sql)
}

// Engine returns the underlying engine.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Listen binds the given address ("127.0.0.1:0" for an ephemeral port) and
// starts accepting connections in a background goroutine.
func (s *OpenServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server is closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound address, or "" before Listen.
func (s *OpenServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

func (s *OpenServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and closes all live connections.
func (s *OpenServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Checkpoint persists the catalog snapshot if SnapshotPath is configured.
func (s *Server) Checkpoint() error {
	if s.SnapshotPath == "" {
		return nil
	}
	return s.eng.Catalog().SaveFile(s.SnapshotPath)
}

func (s *OpenServer) serveConn(conn net.Conn) {
	var sess Session
	defer func() {
		if sess != nil {
			sess.Close() // a dropped connection rolls back its open transaction
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// One read buffer and one response buffer for the connection's life,
	// so a small request costs one read and the loop allocates only the
	// SQL text of each request. The first packet is the login; every
	// later one is a request.
	r := bufio.NewReader(conn)
	rd := tds.NewReader(r) //ecavet:allow iodeadline a session waits for its next command indefinitely; Close() closes the conn
	rw := tds.NewResponseWriter(conn)
	for {
		pkt, err := rd.Next()
		if err != nil {
			if sess != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logf("server: read: %v", err)
			}
			return
		}
		if sess == nil {
			ack := tds.LoginAck{OK: true, Message: "login succeeded"}
			if sess, err = s.login(pkt); err != nil {
				// A refusal another server sent (the gateway relays its
				// upstream's) goes back with that server's text alone.
				ack = tds.LoginAck{Message: err.Error()}
				var rej *tds.LoginRejected
				if errors.As(err, &rej) {
					ack.Message = rej.Msg
				}
			}
			if err := tds.WritePacket(conn, tds.MarshalLoginAck(ack)); err != nil || !ack.OK {
				return
			}
			continue
		}
		sql, err := tds.UnmarshalLanguage(pkt)
		if err != nil {
			_ = rw.WriteResults(nil, fmt.Errorf("protocol error: %v", err))
			continue
		}
		results, execErr := sess.Exec(sql)
		if execErr != nil {
			// An error another server raised (the gateway relays them)
			// goes back with that server's text alone.
			var srvErr *tds.ServerError
			if errors.As(execErr, &srvErr) {
				execErr = srvErr
			}
		}
		if err := rw.WriteResults(results, execErr); err != nil {
			return
		}
		if r.Buffered() > 0 {
			// The next pipelined request is already buffered, so this
			// goroutine would run it without ever blocking. Yield first:
			// goroutines already waiting to run (another session's, or the
			// one that reads a reply this server just wrote) go before the
			// rest of the pipeline instead of after all of it.
			runtime.Gosched()
		}
	}
}

// login opens the session a LOGIN packet asks for.
func (s *OpenServer) login(pkt tds.Packet) (Session, error) {
	login, err := tds.UnmarshalLogin(pkt)
	if err != nil {
		return nil, err
	}
	return s.open(login.User, login.Database)
}
