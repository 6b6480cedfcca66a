// Package engine executes parsed SQL against the catalog. It is the heart
// of the SQL server substrate: DDL, DML with native trigger firing
// (including the inserted/deleted pseudo-tables), stored procedures,
// transactions with rollback, and the syb_sendmsg notification builtin the
// ECA agent's generated triggers use to signal primitive events.
package engine

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// Notifier delivers a syb_sendmsg datagram. The default implementation
// sends a UDP packet, exactly like the extended stored procedure in the
// original server; tests and the in-process agent configuration substitute
// a direct function call.
type Notifier func(host string, port int, msg string) error

// UDPNotifier returns the production Notifier: one UDP datagram per call.
func UDPNotifier() Notifier {
	return func(host string, port int, msg string) error {
		conn, err := net.Dial("udp", net.JoinHostPort(host, fmt.Sprintf("%d", port)))
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = conn.Write([]byte(msg))
		return err
	}
}

// maxTriggerDepth bounds trigger nesting, matching the original server's
// nested-trigger limit of 16.
const maxTriggerDepth = 16

// Engine executes SQL against a catalog. It is safe for concurrent use by
// multiple sessions.
type Engine struct {
	cat      *catalog.Catalog
	mu       sync.RWMutex
	notifier Notifier
	// now is the clock used by getdate(); replaceable in tests.
	now func() time.Time
}

// New returns an engine over the given catalog with UDP notification.
func New(cat *catalog.Catalog) *Engine {
	return &Engine{cat: cat, notifier: UDPNotifier(), now: time.Now}
}

// Catalog exposes the engine's catalog (used by the server for snapshots).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// SetNotifier replaces the syb_sendmsg transport.
func (e *Engine) SetNotifier(n Notifier) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.notifier = n
}

func (e *Engine) notify(host string, port int, msg string) error {
	e.mu.RLock()
	n := e.notifier
	e.mu.RUnlock()
	if n == nil {
		return nil
	}
	return n(host, port, msg)
}

// SetClock replaces the getdate() clock (tests only).
func (e *Engine) SetClock(now func() time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = now
}

func (e *Engine) clock() time.Time {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now()
}

// Session is one client's execution context: current database, user
// identity, trigger nesting state and any open transaction. A Session must
// be used from one goroutine at a time.
type Session struct {
	eng  *Engine
	db   string
	user string

	// trigCtx is the stack of trigger execution contexts providing the
	// inserted/deleted pseudo-tables.
	trigCtx []*triggerContext
	// vars holds procedure parameters during procedure execution.
	vars map[string]sqltypes.Value
	// txn is the open explicit transaction, if any.
	txn *transaction
	// extra buffers result sets produced by triggers and procedures fired
	// from within a statement; ExecBatch interleaves them after the
	// triggering statement's own result, preserving wire order.
	extra []*sqltypes.ResultSet
	// procDepth guards against runaway procedure recursion.
	procDepth int
}

type triggerContext struct {
	inserted *storage.Table
	deleted  *storage.Table
}

// NewSession creates a session for the given user, starting in master.
func (e *Engine) NewSession(user string) *Session {
	if user == "" {
		user = catalog.DefaultOwner
	}
	return &Session{eng: e, db: "master", user: user}
}

// User returns the session's login name.
func (s *Session) User() string { return s.user }

// DatabaseName returns the session's current database.
func (s *Session) DatabaseName() string { return s.db }

// Use switches the current database.
func (s *Session) Use(db string) error {
	if _, err := s.eng.cat.Database(db); err != nil {
		return err
	}
	s.db = db
	return nil
}

// ExecScript splits src on GO lines and executes every batch, returning
// one result per statement.
func (s *Session) ExecScript(src string) ([]*sqltypes.ResultSet, error) {
	var out []*sqltypes.ResultSet
	for _, batch := range sqlparse.SplitBatches(src) {
		results, err := s.ExecBatch(batch)
		out = append(out, results...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ExecBatch parses and executes one batch, returning one result per
// statement. On error, the results of the statements that ran are
// returned along with the error.
func (s *Session) ExecBatch(src string) ([]*sqltypes.ResultSet, error) {
	stmts, err := sqlparse.ParseBatch(src)
	if err != nil {
		return nil, err
	}
	var out []*sqltypes.ResultSet
	for _, st := range stmts {
		rs, err := s.ExecStmt(st)
		if rs != nil {
			out = append(out, rs)
		}
		out = append(out, s.drainExtra()...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// drainExtra removes and returns the buffered trigger/procedure output.
func (s *Session) drainExtra() []*sqltypes.ResultSet {
	out := s.extra
	s.extra = nil
	return out
}

// ExecStmt executes one statement.
func (s *Session) ExecStmt(st sqlparse.Statement) (*sqltypes.ResultSet, error) {
	switch st := st.(type) {
	case *sqlparse.CreateDatabase:
		_, err := s.eng.cat.CreateDatabase(st.Name)
		return &sqltypes.ResultSet{}, err
	case *sqlparse.UseDatabase:
		return &sqltypes.ResultSet{}, s.Use(st.Name)
	case *sqlparse.CreateTable:
		return s.execCreateTable(st)
	case *sqlparse.DropTable:
		return s.execDropTable(st)
	case *sqlparse.AlterTableAdd:
		return s.execAlterTableAdd(st)
	case *sqlparse.CreateIndex:
		return s.execCreateIndex(st)
	case *sqlparse.Insert:
		return s.execInsert(st)
	case *sqlparse.Select:
		return s.execSelectStmt(st)
	case *sqlparse.Update:
		return s.execUpdate(st)
	case *sqlparse.Delete:
		return s.execDelete(st)
	case *sqlparse.CreateTrigger:
		return s.execCreateTrigger(st)
	case *sqlparse.DropTrigger:
		return s.execDropTrigger(st)
	case *sqlparse.CreateProcedure:
		return s.execCreateProcedure(st)
	case *sqlparse.DropProcedure:
		return s.execDropProcedure(st)
	case *sqlparse.Execute:
		return s.execProcedureCall(st)
	case *sqlparse.Print:
		return s.execPrint(st)
	case *sqlparse.BeginTran:
		return &sqltypes.ResultSet{}, s.beginTran()
	case *sqlparse.CommitTran:
		return &sqltypes.ResultSet{}, s.commitTran()
	case *sqlparse.RollbackTran:
		return &sqltypes.ResultSet{}, s.rollbackTran()
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// database returns the named database, or the session's current one.
func (s *Session) database(name string) (*catalog.Database, error) {
	if name == "" {
		name = s.db
	}
	return s.eng.cat.Database(name)
}

// resolveTable resolves a table reference, honouring the inserted/deleted
// pseudo-tables while a trigger is running.
func (s *Session) resolveTable(name sqlparse.ObjectName) (*storage.Table, error) {
	if !name.IsQualified() && len(s.trigCtx) > 0 {
		ctx := s.trigCtx[len(s.trigCtx)-1]
		switch strings.ToLower(name.Name()) {
		case "inserted":
			if ctx.inserted != nil {
				return ctx.inserted, nil
			}
		case "deleted":
			if ctx.deleted != nil {
				return ctx.deleted, nil
			}
		}
	}
	db, err := s.database(name.Database())
	if err != nil {
		return nil, err
	}
	return db.Table(name.Owner(), name.Name(), s.user)
}

// ownerFor returns the owner component to record for a newly created
// object: the explicit qualifier if given, else the session user.
func (s *Session) ownerFor(name sqlparse.ObjectName) string {
	if o := name.Owner(); o != "" {
		return o
	}
	return s.user
}

func (s *Session) execCreateTable(st *sqlparse.CreateTable) (*sqltypes.ResultSet, error) {
	db, err := s.database(st.Name.Database())
	if err != nil {
		return nil, err
	}
	schema := &sqltypes.Schema{}
	for _, cd := range st.Columns {
		// Sybase defaults to NOT NULL when no null spec is given.
		if err := schema.AddColumn(sqltypes.Column{Name: cd.Name, Type: cd.Type, Nullable: cd.Nullable}); err != nil {
			return nil, err
		}
	}
	_, err = db.CreateTable(s.ownerFor(st.Name), st.Name.Name(), schema)
	return &sqltypes.ResultSet{}, err
}

func (s *Session) execDropTable(st *sqlparse.DropTable) (*sqltypes.ResultSet, error) {
	db, err := s.database(st.Name.Database())
	if err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{}, db.DropTable(st.Name.Owner(), st.Name.Name(), s.user)
}

func (s *Session) execAlterTableAdd(st *sqlparse.AlterTableAdd) (*sqltypes.ResultSet, error) {
	tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	col := sqltypes.Column{Name: st.Column.Name, Type: st.Column.Type, Nullable: st.Column.Nullable}
	return &sqltypes.ResultSet{}, tbl.AddColumn(col)
}

// execCreateIndex declares a hash index; the table owns it, so DROP TABLE
// drops it too.
func (s *Session) execCreateIndex(st *sqlparse.CreateIndex) (*sqltypes.ResultSet, error) {
	tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{}, tbl.CreateIndex(st.Name, st.Column)
}

func (s *Session) execCreateTrigger(st *sqlparse.CreateTrigger) (*sqltypes.ResultSet, error) {
	db, err := s.database(st.Name.Database())
	if err != nil {
		return nil, err
	}
	tr := &catalog.Trigger{
		Name:      st.Name.Name(),
		Owner:     s.ownerFor(st.Name),
		Table:     st.Table.Name(),
		Operation: st.Operation,
		Body:      st.Body,
		RawSQL:    st.SQL(),
	}
	return &sqltypes.ResultSet{}, db.CreateTrigger(tr, s.user)
}

func (s *Session) execDropTrigger(st *sqlparse.DropTrigger) (*sqltypes.ResultSet, error) {
	db, err := s.database(st.Name.Database())
	if err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{}, db.DropTrigger(st.Name.Owner(), st.Name.Name(), s.user)
}

func (s *Session) execCreateProcedure(st *sqlparse.CreateProcedure) (*sqltypes.ResultSet, error) {
	db, err := s.database(st.Name.Database())
	if err != nil {
		return nil, err
	}
	p := &catalog.Procedure{
		Name:   st.Name.Name(),
		Owner:  s.ownerFor(st.Name),
		Params: st.Params,
		Body:   st.Body,
		RawSQL: st.SQL(),
	}
	return &sqltypes.ResultSet{}, db.CreateProcedure(p)
}

func (s *Session) execDropProcedure(st *sqlparse.DropProcedure) (*sqltypes.ResultSet, error) {
	db, err := s.database(st.Name.Database())
	if err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{}, db.DropProcedure(st.Name.Owner(), st.Name.Name(), s.user)
}

func (s *Session) execPrint(st *sqlparse.Print) (*sqltypes.ResultSet, error) {
	v, err := s.eval(st.Value, nil)
	if err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{Messages: []string{v.AsString()}}, nil
}
