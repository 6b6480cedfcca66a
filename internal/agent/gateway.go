package agent

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// ClientSession is the agent-side state for one client connection: its own
// pass-through upstream connection plus the (database, user) context the
// ECA parser needs for name expansion. From the client's point of view the
// session is indistinguishable from a direct server connection — the
// transparency property of Figure 1.
type ClientSession struct {
	agent *Agent
	up    Upstream
	user  string
	db    string
}

// NewClientSession opens a session as the gateway does for each incoming
// client connection. It is also the embedding API: programs can drive the
// agent in-process through it.
func (a *Agent) NewClientSession(user, db string) (*ClientSession, error) {
	if user == "" {
		user = "dbo"
	}
	up, err := a.cfg.Dial(user, db)
	if err != nil {
		return nil, err
	}
	return &ClientSession{agent: a, up: up, user: user, db: db}, nil
}

// Close releases the session's upstream connection.
func (cs *ClientSession) Close() error { return cs.up.Close() }

// User returns the session login.
func (cs *ClientSession) User() string { return cs.user }

// Database returns the session's current database.
func (cs *ClientSession) Database() string { return cs.db }

// Exec is the Language Filter (Figure 2): each GO-batch of the script is
// classified as an ECA command (handled by the agent) or ordinary SQL
// (passed through to the server verbatim).
func (cs *ClientSession) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	var out []*sqltypes.ResultSet
	for _, batch := range sqlparse.SplitBatches(sql) {
		start := cs.agent.clock.Now()
		results, err := cs.execBatch(batch)
		cs.agent.met.gatewayBatchSec.Observe(cs.agent.clock.Now().Sub(start).Seconds())
		out = append(out, results...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// splitLeadingUse detects a batch beginning with "use <db>" and returns
// the database plus the remaining text, so an ECA command can follow a
// database switch in the same batch (the common isql pattern).
func splitLeadingUse(batch string) (db, rest string, ok bool) {
	toks, err := sqllex.Tokenize(batch)
	if err != nil || len(toks) < 3 {
		return "", "", false
	}
	if !toks[0].IsKeyword("use") || toks[1].Kind != sqllex.TokIdent {
		return "", "", false
	}
	return toks[1].Text, batch[toks[1].End:], true
}

func (cs *ClientSession) execBatch(batch string) ([]*sqltypes.ResultSet, error) {
	// A "use db" prefix ahead of an ECA command is honoured here so the
	// name expansion happens in the right database.
	if db, rest, ok := splitLeadingUse(batch); ok {
		isECADrop := false
		if parts, isDrop := ParseDropTrigger(rest); isDrop {
			// The drop is classified against the *target* database.
			isECADrop = cs.agent.IsECATrigger(db, cs.user, parts)
		}
		if IsECACreateTrigger(rest) || isECADrop {
			useResults, err := cs.up.Exec("use " + db)
			if err != nil {
				return useResults, err
			}
			cs.db = db
			ecaResults, err := cs.execBatch(rest)
			return append(useResults, ecaResults...), err
		}
	}
	switch {
	case IsECACreateTrigger(batch):
		cs.agent.met.ecaCommands.Inc()
		def, err := ParseECATrigger(batch)
		if err != nil {
			return nil, err
		}
		msgs, err := cs.agent.CreateTrigger(cs.db, cs.user, def)
		if err != nil {
			return nil, err
		}
		return []*sqltypes.ResultSet{{Messages: msgs}}, nil

	default:
		if parts, ok := ParseDropTrigger(batch); ok &&
			cs.agent.IsECATrigger(cs.db, cs.user, parts) {
			cs.agent.met.ecaCommands.Inc()
			msgs, err := cs.agent.DropTrigger(cs.db, cs.user, parts)
			if err != nil {
				return nil, err
			}
			return []*sqltypes.ResultSet{{Messages: msgs}}, nil
		}
		// Ordinary SQL: pass through untouched, then track database
		// switches so later ECA commands expand names correctly.
		cs.agent.met.passThrough.Inc()
		results, err := cs.up.Exec(batch)
		if err == nil {
			if db, switched := lastUseTarget(batch); switched {
				cs.db = db
			}
			// DEFERRED rules run at transaction boundaries: a committed
			// batch releases the queue (Snoop's deferred coupling
			// semantics; the paper lists this mode as future work).
			if batchCommits(batch) {
				cs.agent.FlushDeferred()
			}
		}
		return results, err
	}
}

// batchCommits reports whether the batch contains a top-level COMMIT.
func batchCommits(batch string) bool {
	toks, err := sqllex.Tokenize(batch)
	if err != nil {
		return false
	}
	for _, t := range toks {
		if t.IsKeyword("commit") {
			return true
		}
	}
	return false
}

// Query is a convenience wrapper returning the last result set with rows.
func (cs *ClientSession) Query(sql string) (*sqltypes.ResultSet, error) {
	results, err := cs.Exec(sql)
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

// lastUseTarget lexically scans a batch for USE statements, returning the
// final target database.
func lastUseTarget(batch string) (string, bool) {
	toks, err := sqllex.Tokenize(batch)
	if err != nil {
		return "", false
	}
	db := ""
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].IsKeyword("use") && toks[i+1].Kind == sqllex.TokIdent {
			// Only count statement-initial USE (previous token is not a
			// name component).
			if i == 0 || !toks[i-1].IsOp(".") {
				db = toks[i+1].Text
			}
		}
	}
	return db, db != ""
}

// gateway is the General Interface: a TCP listener speaking the same wire
// protocol as the server, forwarding through ClientSessions.
type gateway struct {
	agent    *Agent
	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{} // guarded by mu
	closed   bool                  // guarded by mu
	wg       sync.WaitGroup
}

// ListenGateway starts the agent's client-facing listener; clients connect
// to it exactly as they would to the server.
func (a *Agent) ListenGateway(addr string) error {
	if a.gateway != nil {
		return errors.New("agent: gateway already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	g := &gateway{agent: a, listener: ln, conns: make(map[net.Conn]struct{})}
	a.gateway = g
	g.wg.Add(1)
	go g.acceptLoop()
	return nil
}

// GatewayAddr returns the gateway's bound address.
func (a *Agent) GatewayAddr() string {
	if a.gateway == nil {
		return ""
	}
	return a.gateway.listener.Addr().String()
}

func (g *gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		conn, err := g.listener.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.serve(conn)
		}()
	}
}

func (g *gateway) close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	g.listener.Close()
	g.wg.Wait()
}

// serve handles one client connection: the same login/language loop the
// server runs, but with the Language Filter in the request path.
func (g *gateway) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
	}()

	// One buffer for the connection's life: a small request costs one read.
	r := bufio.NewReader(conn)
	pkt, err := tds.ReadPacket(r)
	if err != nil {
		return
	}
	login, err := tds.UnmarshalLogin(pkt)
	if err != nil {
		_ = tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{Message: err.Error()}))
		return
	}
	cs, err := g.agent.NewClientSession(login.User, login.Database)
	if err != nil {
		_ = tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{Message: err.Error()}))
		return
	}
	defer cs.Close()
	if err := tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{OK: true, Message: "login succeeded (via ECA agent)"})); err != nil {
		return
	}

	for {
		pkt, err := tds.ReadPacket(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				g.agent.cfg.Logf("agent: gateway read: %v", err)
			}
			return
		}
		sql, err := tds.UnmarshalLanguage(pkt)
		if err != nil {
			_ = tds.WriteResults(conn, nil, fmt.Errorf("protocol error: %v", err))
			continue
		}
		results, execErr := cs.Exec(sql)
		// A pass-through error may itself be a remote ServerError; keep
		// its text either way.
		var srvErr *tds.ServerError
		if errors.As(execErr, &srvErr) {
			execErr = srvErr
		}
		if err := tds.WriteResults(conn, results, execErr); err != nil {
			return
		}
	}
}
