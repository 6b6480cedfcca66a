package agent

import (
	"errors"

	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
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
	// toks is the token buffer every batch is classified in.
	toks []sqllex.Token
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
	cs.agent.execs.Add(1)
	defer cs.agent.execs.Add(-1)
	var out []*sqltypes.ResultSet
	for batch, rest, ok := sqlparse.NextBatch(sql); ok; batch, rest, ok = sqlparse.NextBatch(rest) {
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

// batchClass is what the Language Filter reads from one tokenize of a
// batch. A batch that does not lex is ordinary SQL: every field is zero and
// the server reports the error.
type batchClass struct {
	// useDB is the database of a leading "use db" that more tokens follow,
	// so an ECA command can follow a database switch in the same batch
	// (the common isql pattern); "" without one.
	useDB string
	// body is the batch's tokens after that leading USE, or all of them.
	body []sqllex.Token
	// create reports that body is an ECA CREATE TRIGGER.
	create bool
	// drop holds the name parts when body is a DROP TRIGGER (ECA or
	// native: that depends on the catalog), else nil.
	drop []string
	// lastUse is the target of the batch's last statement-initial USE
	// (one not preceded by a '.'), "" without one.
	lastUse string
	// commits reports a COMMIT anywhere in the batch.
	commits bool
}

// classifyBatch tokenizes batch once, into *buf (sqllex.LexInto), and
// takes every Language Filter decision from that token slice.
func classifyBatch(buf *[]sqllex.Token, batch string) batchClass {
	toks, err := sqllex.LexInto(buf, batch)
	if err != nil {
		return batchClass{}
	}
	c := batchClass{body: toks}
	if len(toks) >= 3 && toks[0].IsKeyword("use") && toks[1].Kind == sqllex.TokIdent {
		c.useDB, c.body = toks[1].Text, toks[2:]
	}
	c.create = isECACreate(c.body)
	c.drop, _ = dropTriggerName(c.body)
	for i, t := range toks {
		switch {
		case t.IsKeyword("commit"):
			c.commits = true
		case t.IsKeyword("use") && i+1 < len(toks) && toks[i+1].Kind == sqllex.TokIdent &&
			(i == 0 || !toks[i-1].IsOp(".")):
			c.lastUse = toks[i+1].Text
		}
	}
	return c
}

func (cs *ClientSession) execBatch(batch string) ([]*sqltypes.ResultSet, error) {
	c := classifyBatch(&cs.toks, batch)
	db := cs.db
	if c.useDB != "" {
		db = c.useDB
	}
	// The drop is classified against the database it would run in.
	ecaDrop := c.drop != nil && cs.agent.IsECATrigger(db, cs.user, c.drop)
	if c.create || ecaDrop {
		var results []*sqltypes.ResultSet
		if c.useDB != "" {
			// Honour the leading USE first so the name expansion happens
			// in the right database.
			useResults, err := cs.up.Exec("use " + c.useDB)
			if err != nil {
				return useResults, err
			}
			cs.db = c.useDB
			results = useResults
		}
		cs.agent.met.ecaCommands.Inc()
		var msgs []string
		var err error
		if c.create {
			var def *TriggerDef
			if def, err = parseECATrigger(batch, c.body); err == nil {
				msgs, err = cs.agent.CreateTrigger(cs.db, cs.user, def)
			}
		} else {
			msgs, err = cs.agent.DropTrigger(cs.db, cs.user, c.drop)
		}
		if err != nil {
			return results, err
		}
		return append(results, &sqltypes.ResultSet{Messages: msgs}), nil
	}

	// Ordinary SQL: pass through untouched, then track database switches
	// so later ECA commands expand names correctly.
	cs.agent.met.passThrough.Inc()
	results, err := cs.up.Exec(batch)
	switch {
	case err == nil:
		if c.lastUse != "" {
			cs.db = c.lastUse
		}
		// DEFERRED rules run at transaction boundaries: a committed batch
		// releases the queue (Snoop's deferred coupling semantics; the
		// paper lists this mode as future work).
		if c.commits {
			cs.agent.FlushDeferred()
		}
	case c.lastUse != "":
		// A USE ahead of the failing statement may have run: ask the
		// server where the session is.
		cs.refreshDatabase()
	}
	return results, err
}

// refreshDatabase re-reads the session's current database from the server,
// keeping the tracked one if the query fails.
func (cs *ClientSession) refreshDatabase() {
	results, err := cs.up.Exec("select db_name()")
	if err != nil {
		return
	}
	for _, rs := range results {
		if len(rs.Rows) == 1 && len(rs.Rows[0]) == 1 {
			cs.db = rs.Rows[0][0].Str()
			return
		}
	}
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

// ListenGateway starts the agent's client-facing listener, the General
// Interface: the server package's tds loop with a ClientSession, and so
// the Language Filter, behind each login. Clients connect to it exactly
// as they would to the server.
func (a *Agent) ListenGateway(addr string) error {
	if a.gateway != nil {
		return errors.New("agent: gateway already listening")
	}
	g := server.NewOpenServer(func(user, db string) (server.Session, error) {
		cs, err := a.NewClientSession(user, db)
		if err != nil {
			return nil, err
		}
		return cs, nil
	})
	g.Logf = a.cfg.Logf
	if err := g.Listen(addr); err != nil {
		return err
	}
	a.gateway = g
	return nil
}

// GatewayAddr returns the gateway's bound address.
func (a *Agent) GatewayAddr() string {
	if a.gateway == nil {
		return ""
	}
	return a.gateway.Addr()
}
