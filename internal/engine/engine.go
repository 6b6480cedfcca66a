// Package engine executes parsed SQL against the catalog. It is the heart
// of the SQL server substrate: DDL, DML with native trigger firing
// (including the inserted/deleted pseudo-tables), stored procedures,
// transactions with rollback, and the syb_sendmsg notification builtin the
// ECA agent's generated triggers use to signal primitive events.
package engine

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// Notifier delivers a syb_sendmsg datagram. The default implementation
// sends a UDP packet, exactly like the extended stored procedure in the
// original server; tests and the in-process agent configuration substitute
// a direct function call.
type Notifier func(host string, port int, msg string) error

// UDPNotifier returns the production Notifier. Every datagram leaves
// through one unconnected UDP socket, opened on first use and shared by
// all sessions (UDPConn writes are safe for concurrent use); each
// host:port is resolved once. The socket is dual-stack where the host
// allows it, so IPv4 and IPv6 destinations both work.
//
// After a datagram is written, the sending goroutine yields its processor
// once (runtime.Gosched), but only when an Event Notifier of this process
// reads the destination and reports itself idle (ReceiveInProcess).
// Measured on a 2-vCPU host (DESIGN.md §7): with the agent in the process
// and one statement at a time, the reaction falls by about a quarter and
// the process's threads sleep half as often per reaction. With the agent
// in another process, a yield after every datagram raised the reaction by
// 16 %; there nothing is registered, so nothing yields.
func UDPNotifier() Notifier {
	n := &udpNotifier{addrs: make(map[udpDest]netip.AddrPort), yield: runtime.Gosched}
	return n.send
}

// receivers maps each address an Event Notifier of this process reads
// (netip.AddrPort) to its idle func (ReceiveInProcess).
var receivers sync.Map

// ReceiveInProcess records that a goroutine of this process reads the
// syb_sendmsg datagrams sent to addr, until release is called. idle
// reports whether the reader has no work in hand but the sender's
// statement; UDPNotifier yields after a datagram to addr only then.
func ReceiveInProcess(addr netip.AddrPort, idle func() bool) (release func()) {
	addr = netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
	receivers.Store(addr, idle)
	return func() { receivers.Delete(addr) }
}

type udpDest struct {
	host string
	port int
}

type udpNotifier struct {
	mu    sync.Mutex
	conn  *net.UDPConn               // guarded by mu; nil until the first send
	addrs map[udpDest]netip.AddrPort // guarded by mu; successful resolves only
	yield func()                     // runtime.Gosched, or a test probe
}

func (n *udpNotifier) send(host string, port int, msg string) error {
	conn, to, err := n.route(host, port)
	if err != nil {
		return err
	}
	if _, err := conn.WriteToUDPAddrPort([]byte(msg), to); err != nil {
		return err
	}
	if idle, ok := receivers.Load(to); ok && idle.(func() bool)() {
		n.yield()
	}
	return nil
}

// route returns the shared socket and the resolved destination, opening
// and resolving on first use. A failed resolve is not cached.
func (n *udpNotifier) route(host string, port int) (*net.UDPConn, netip.AddrPort, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.conn == nil {
		conn, err := net.ListenUDP("udp", nil)
		if err != nil {
			return nil, netip.AddrPort{}, err
		}
		n.conn = conn
	}
	d := udpDest{host, port}
	to, ok := n.addrs[d]
	if !ok {
		ua, err := net.ResolveUDPAddr("udp", net.JoinHostPort(host, strconv.Itoa(port)))
		if err != nil {
			return nil, netip.AddrPort{}, err
		}
		// An IPv4 address must not stay IPv4-mapped: a host without IPv6
		// gives an IPv4-only socket, which refuses the mapped form.
		ap := ua.AddrPort()
		to = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		if !to.Addr().IsValid() {
			return nil, netip.AddrPort{}, fmt.Errorf("engine: no address for host %q", host)
		}
		n.addrs[d] = to
	}
	return n.conn, to, nil
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
	// out holds the running batch's results (execStmts): each statement's
	// own result, then the result sets of the trigger and procedure bodies
	// it ran, which they append here as they run, in wire order.
	out []*sqltypes.ResultSet
	// procDepth guards against runaway procedure recursion.
	procDepth int

	// toks and key are the lex and shape-key buffers every batch reuses.
	// templates, plans and nullables are the plan cache (plan.go); reuse
	// is set while the statements running are nodes the session will run
	// again, whose plans it keeps.
	toks      []sqllex.Token
	key       []byte
	templates map[string]*sqlparse.Template
	plans     map[sqlparse.Statement]*plan
	nullables map[*sqltypes.Schema]*sqltypes.Schema
	reuse     bool
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

// OpenSession opens a session for user in db, or in master when db is
// "": what a login asks of the server.
func (e *Engine) OpenSession(user, db string) (*Session, error) {
	sess := e.NewSession(user)
	if db != "" {
		if err := sess.Use(db); err != nil {
			return nil, err
		}
	}
	return sess, nil
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
	for batch, rest, ok := sqlparse.NextBatch(src); ok; batch, rest, ok = sqlparse.NextBatch(rest) {
		results, err := s.ExecBatch(batch)
		if out == nil {
			out = results // a one-batch script's results need no copy
		} else {
			out = append(out, results...)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ExecBatch parses and executes one batch, returning one result per
// statement. On error, the results of the statements that ran are
// returned along with the error. A batch whose shape the session has run
// before is not parsed again (plan.go).
func (s *Session) ExecBatch(src string) ([]*sqltypes.ResultSet, error) {
	stmts, kept, err := s.parse(src)
	if err != nil || len(stmts) == 0 {
		return nil, err
	}
	s.reuse = kept
	defer func() { s.reuse = false }()
	return s.execStmts(stmts)
}

// execStmts runs stmts in order and returns each one's result followed by
// the result sets of the trigger and procedure bodies it ran; on error,
// the results up to the failing statement's and the error. The slice has
// room for one body result per statement (a Figure 11 trigger's SELECT,
// an action procedure's PRINT), so such a batch allocates it once.
func (s *Session) execStmts(stmts []sqlparse.Statement) ([]*sqltypes.ResultSet, error) {
	s.out = make([]*sqltypes.ResultSet, 0, 2*len(stmts))
	defer func() { s.out = nil }()
	for _, st := range stmts {
		// The statement's own result goes before what its bodies append.
		at := len(s.out)
		s.out = append(s.out, nil)
		rs, err := s.ExecStmt(st)
		if rs != nil {
			s.out[at] = rs
		} else {
			s.out = append(s.out[:at], s.out[at+1:]...)
		}
		if err != nil {
			return s.out, err
		}
	}
	return s.out, nil
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
		switch n := name.Name(); {
		case ctx.inserted != nil && strings.EqualFold(n, "inserted"):
			return ctx.inserted, nil
		case ctx.deleted != nil && strings.EqualFold(n, "deleted"):
			return ctx.deleted, nil
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
	p := s.planFor(st)
	defer p.release()
	if !p.built {
		p.exprs, _ = bindAll([]sqlparse.Expr{st.Value}, nil)
		p.built = true
	}
	v, err := s.eval(p.exprs[0], nil)
	if err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{Messages: []string{v.AsString()}}, nil
}
