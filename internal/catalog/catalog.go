// Package catalog implements the system catalog of the SQL server
// substrate: databases, owned tables, stored procedures, and native
// triggers, with Sybase-style name resolution (db.owner.object) and
// whole-database snapshot persistence.
package catalog

import (
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// DefaultOwner is the database-owner account objects fall back to when the
// creating session did not specify one, mirroring "dbo".
const DefaultOwner = "dbo"

// Procedure is a stored procedure definition.
type Procedure struct {
	Name   string // unqualified
	Owner  string
	Params []sqlparse.ProcParam
	Body   []sqlparse.Statement
	// RawSQL is the complete CREATE PROCEDURE text, kept for persistence
	// and for sp_helptext-style introspection.
	RawSQL string
}

// Trigger is a native trigger definition. As in the original server there
// is at most one trigger per (table, operation); creating another silently
// overwrites it (one of the limitations in §2.2 of the paper that the ECA
// agent exists to lift).
type Trigger struct {
	Name      string // unqualified
	Owner     string
	Table     string // unqualified table name (same owner as the trigger)
	Operation sqlparse.TriggerOp
	Body      []sqlparse.Statement
	RawSQL    string
}

// byName holds one kind of catalog object, keyed by lowercased name; each
// name lists its objects, one per owner. Keying by name alone lets a lookup
// index with a name it lowercases into a stack buffer, and answers the
// any-owner step of resolution without a scan.
type byName[T any] map[string][]owned[T]

// owned is one object and its owner as spelled at creation.
type owned[T any] struct {
	owner string
	v     T
}

// fold appends s lowercased to buf, as strings.ToLower would: the key the
// maps are indexed by. Indexing with string(fold(buf[:0], s)) for a stack
// buf allocates nothing for a short ASCII name.
func fold(buf []byte, s string) []byte {
	n := len(buf)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(buf[:n], strings.ToLower(s)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// index resolves name for a session user to its object list and the
// position in it, or -1. Resolution order matches the server: exact owner
// if specified; else the session user's object, then dbo's, then the only
// object of that name under any owner.
func (m byName[T]) index(owner, name, user string) ([]owned[T], int) {
	var buf [64]byte
	list := m[string(fold(buf[:0], name))]
	if owner != "" {
		return list, ownerIndex(list, owner)
	}
	if i := ownerIndex(list, user); i >= 0 {
		return list, i
	}
	if i := ownerIndex(list, DefaultOwner); i >= 0 {
		return list, i
	}
	if len(list) == 1 {
		return list, 0
	}
	return list, -1
}

func ownerIndex[T any](list []owned[T], owner string) int {
	if owner == "" {
		return -1
	}
	for i, ob := range list {
		if strings.EqualFold(ob.owner, owner) {
			return i
		}
	}
	return -1
}

// get returns the object index resolves to.
func (m byName[T]) get(owner, name, user string) (T, bool) {
	list, i := m.index(owner, name, user)
	if i < 0 {
		var zero T
		return zero, false
	}
	return list[i].v, true
}

// add registers v under (owner, name), reporting false if that pair
// exists.
func (m byName[T]) add(owner, name string, v T) bool {
	k := strings.ToLower(name)
	if ownerIndex(m[k], owner) >= 0 {
		return false
	}
	m[k] = append(m[k], owned[T]{owner: owner, v: v})
	return true
}

// put registers v under (owner, name), replacing what that pair held.
func (m byName[T]) put(owner, name string, v T) {
	k := strings.ToLower(name)
	if i := ownerIndex(m[k], owner); i >= 0 {
		m[k][i].v = v
		return
	}
	m[k] = append(m[k], owned[T]{owner: owner, v: v})
}

// remove deletes the object index resolves to, reporting what it was.
func (m byName[T]) remove(owner, name, user string) (T, bool) {
	list, i := m.index(owner, name, user)
	if i < 0 {
		var zero T
		return zero, false
	}
	v := list[i].v
	k := strings.ToLower(name)
	if len(list) == 1 {
		delete(m, k)
	} else {
		m[k] = append(list[:i:i], list[i+1:]...)
	}
	return v, true
}

// Database holds one database's objects.
type Database struct {
	mu       sync.RWMutex
	name     string
	tables   byName[*storage.Table]
	procs    byName[*Procedure]
	triggers byName[*Trigger]
	// trigByTable indexes triggers by table and operation.
	trigByTable map[*storage.Table]map[sqlparse.TriggerOp]*Trigger
}

func newDatabase(name string) *Database {
	return &Database{
		name:        name,
		tables:      make(byName[*storage.Table]),
		procs:       make(byName[*Procedure]),
		triggers:    make(byName[*Trigger]),
		trigByTable: make(map[*storage.Table]map[sqlparse.TriggerOp]*Trigger),
	}
}

// Name returns the database name.
func (d *Database) Name() string { return d.name }

// CreateTable registers a table. It fails if the (owner, name) pair exists.
func (d *Database) CreateTable(owner, name string, schema *sqltypes.Schema) (*storage.Table, error) {
	if owner == "" {
		owner = DefaultOwner
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t := storage.NewTable(schema)
	if !d.tables.add(owner, name, t) {
		return nil, fmt.Errorf("table %s.%s already exists in %s", owner, name, d.name)
	}
	return t, nil
}

// Table resolves a table reference for the given session user.
func (d *Database) Table(owner, name, user string) (*storage.Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables.get(owner, name, user)
	if !ok {
		return nil, fmt.Errorf("table %s not found in %s", displayName(owner, name), d.name)
	}
	return t, nil
}

// DropTable removes a table and any triggers defined on it.
func (d *Database) DropTable(owner, name, user string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables.remove(owner, name, user)
	if !ok {
		return fmt.Errorf("table %s not found in %s", displayName(owner, name), d.name)
	}
	for _, tr := range d.trigByTable[t] {
		d.triggers.remove(tr.Owner, tr.Name, "")
	}
	delete(d.trigByTable, t)
	return nil
}

// TableNames lists tables as owner.name pairs, the name lowercased, in map
// order (callers sort if they need determinism).
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for name, list := range d.tables {
		for _, ob := range list {
			out = append(out, ob.owner+"."+name)
		}
	}
	return out
}

// CreateProcedure registers a stored procedure. Duplicate names fail, as in
// the server.
func (d *Database) CreateProcedure(p *Procedure) error {
	if p.Owner == "" {
		p.Owner = DefaultOwner
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.procs.add(p.Owner, p.Name, p) {
		return fmt.Errorf("procedure %s.%s already exists in %s", p.Owner, p.Name, d.name)
	}
	return nil
}

// Procedure resolves a procedure reference.
func (d *Database) Procedure(owner, name, user string) (*Procedure, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.procs.get(owner, name, user)
	if !ok {
		return nil, fmt.Errorf("procedure %s not found in %s", displayName(owner, name), d.name)
	}
	return p, nil
}

// DropProcedure removes a stored procedure.
func (d *Database) DropProcedure(owner, name, user string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.procs.remove(owner, name, user); !ok {
		return fmt.Errorf("procedure %s not found in %s", displayName(owner, name), d.name)
	}
	return nil
}

// CreateTrigger registers a native trigger. Faithful to the original
// server's documented limitation, a new trigger for the same (table,
// operation) silently replaces the existing one and no warning is given.
func (d *Database) CreateTrigger(tr *Trigger, user string) error {
	if tr.Owner == "" {
		tr.Owner = DefaultOwner
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables.get("", tr.Table, user)
	if !ok {
		return fmt.Errorf("table %s not found in %s", tr.Table, d.name)
	}
	d.attach(t, tr)
	return nil
}

// attach makes tr the trigger for its operation on t, replacing the one
// that was.
func (d *Database) attach(t *storage.Table, tr *Trigger) {
	ops := d.trigByTable[t]
	if ops == nil {
		ops = make(map[sqlparse.TriggerOp]*Trigger)
		d.trigByTable[t] = ops
	}
	if prev, exists := ops[tr.Operation]; exists {
		d.triggers.remove(prev.Owner, prev.Name, "")
	}
	ops[tr.Operation] = tr
	d.triggers.put(tr.Owner, tr.Name, tr)
}

// TriggerFor returns the trigger on (table, op), if any.
func (d *Database) TriggerFor(tableOwner, table, user string, op sqlparse.TriggerOp) (*Trigger, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables.get(tableOwner, table, user)
	if !ok {
		return nil, false
	}
	tr, ok := d.trigByTable[t][op]
	return tr, ok
}

// Trigger resolves a trigger by name.
func (d *Database) Trigger(owner, name, user string) (*Trigger, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	tr, ok := d.triggers.get(owner, name, user)
	if !ok {
		return nil, fmt.Errorf("trigger %s not found in %s", displayName(owner, name), d.name)
	}
	return tr, nil
}

// DropTrigger removes a trigger by name.
func (d *Database) DropTrigger(owner, name, user string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tr, ok := d.triggers.remove(owner, name, user)
	if !ok {
		return fmt.Errorf("trigger %s not found in %s", displayName(owner, name), d.name)
	}
	if t, ok := d.tables.get("", tr.Table, user); ok {
		if ops := d.trigByTable[t]; ops != nil && ops[tr.Operation] == tr {
			delete(ops, tr.Operation)
		}
	}
	return nil
}

func displayName(owner, name string) string {
	if owner == "" {
		return name
	}
	return owner + "." + name
}

// Catalog is the root of the metadata tree: a set of databases.
type Catalog struct {
	mu  sync.RWMutex
	dbs map[string]*Database
}

// New returns a catalog containing only the "master" database.
func New() *Catalog {
	c := &Catalog{dbs: make(map[string]*Database)}
	c.dbs["master"] = newDatabase("master")
	return c
}

// CreateDatabase adds a database.
func (c *Catalog) CreateDatabase(name string) (*Database, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ln := strings.ToLower(name)
	if _, ok := c.dbs[ln]; ok {
		return nil, fmt.Errorf("database %s already exists", name)
	}
	db := newDatabase(name)
	c.dbs[ln] = db
	return db, nil
}

// Database looks up a database by name.
func (c *Catalog) Database(name string) (*Database, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var buf [64]byte
	db, ok := c.dbs[string(fold(buf[:0], name))]
	if !ok {
		return nil, fmt.Errorf("database %s does not exist", name)
	}
	return db, nil
}

// DatabaseNames lists all databases.
func (c *Catalog) DatabaseNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.dbs))
	for n := range c.dbs {
		out = append(out, n)
	}
	return out
}
