package catalog

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/storage"
)

// Save writes the whole catalog (schemas, data, procedures, triggers) as a
// single snapshot stream. Procedures and triggers are stored as their
// CREATE source text and re-parsed on load, the same way the original
// server keeps them in syscomments.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	dbNames := make([]string, 0, len(c.dbs))
	for n := range c.dbs {
		dbNames = append(dbNames, n)
	}
	sort.Strings(dbNames)
	dbs := make([]*Database, len(dbNames))
	for i, n := range dbNames {
		dbs[i] = c.dbs[n]
	}
	c.mu.RUnlock()

	sw := storage.NewWriter(w)
	sw.WriteUint(uint64(len(dbs)))
	// Index declarations trail the databases, so a snapshot written before
	// they existed still loads (with no indexes) and an older reader stops
	// before them. Only the declarations are stored; Load rebuilds the maps.
	// Each database's declarations are taken under the lock that writes its
	// tables, so they always name tables and columns in the snapshot.
	var decls []indexDecl
	for _, db := range dbs {
		decls = append(decls, db.save(sw)...)
	}
	sw.WriteUint(uint64(len(decls)))
	for _, d := range decls {
		sw.WriteString(d.db)
		sw.WriteString(d.owner)
		sw.WriteString(d.table)
		sw.WriteString(d.Name)
		sw.WriteString(d.Column)
	}
	return sw.Flush()
}

// indexDecl places one index declaration in the catalog.
type indexDecl struct {
	db, owner, table string
	storage.IndexDef
}

// sorted lists the objects of m with their lowercased names, by owner
// (lowercased) and then name, or by name and then owner.
func sorted[T any](m byName[T], ownerFirst bool) []named[T] {
	var out []named[T]
	for name, list := range m {
		for _, ob := range list {
			out = append(out, named[T]{name: name, lowOwner: strings.ToLower(ob.owner), owned: ob})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ownerFirst && a.lowOwner != b.lowOwner {
			return a.lowOwner < b.lowOwner
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.lowOwner < b.lowOwner
	})
	return out
}

type named[T any] struct {
	name, lowOwner string
	owned[T]
}

// save writes the database and returns its index declarations, tables in
// name order, read under the same lock.
func (d *Database) save(sw *storage.Writer) []indexDecl {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sw.WriteString(d.name)

	var decls []indexDecl
	tables := sorted(d.tables, true)
	sw.WriteUint(uint64(len(tables)))
	for _, t := range tables {
		sw.WriteString(t.owner)
		sw.WriteString(t.name)
		for _, def := range sw.WriteTable(t.v) {
			decls = append(decls, indexDecl{db: d.name, owner: t.owner, table: t.name, IndexDef: def})
		}
	}

	procs := sorted(d.procs, false)
	sw.WriteUint(uint64(len(procs)))
	for _, p := range procs {
		sw.WriteString(p.v.Owner)
		sw.WriteString(p.v.RawSQL)
	}

	triggers := sorted(d.triggers, false)
	sw.WriteUint(uint64(len(triggers)))
	for _, tr := range triggers {
		sw.WriteString(tr.v.Owner)
		sw.WriteString(tr.v.RawSQL)
	}
	return decls
}

// Load reads a snapshot stream written by Save, returning a fresh catalog.
func Load(r io.Reader) (*Catalog, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sr := storage.NewReader(data)
	sr.Expect(storage.Magic)
	c := &Catalog{dbs: make(map[string]*Database)}
	for range sr.Count() {
		db, err := loadDatabase(sr)
		if err != nil {
			return nil, err
		}
		c.dbs[strings.ToLower(db.name)] = db
	}
	if _, ok := c.dbs["master"]; !ok {
		c.dbs["master"] = newDatabase("master")
	}
	if err := c.loadIndexes(sr); err != nil {
		return nil, err
	}
	return c, nil
}

// loadIndexes reads the trailing index declarations and rebuilds each
// index from its table's rows. A stream that ends before them predates
// indexes and loads with none.
func (c *Catalog) loadIndexes(sr *storage.Reader) error {
	if sr.Len() == 0 {
		return sr.Err()
	}
	for range sr.Count() {
		var f [5]string
		for j := range f {
			f[j] = sr.String()
		}
		if err := sr.Err(); err != nil {
			return err
		}
		db, ok := c.dbs[strings.ToLower(f[0])]
		if !ok {
			return fmt.Errorf("index %s: database %s not in snapshot", f[3], f[0])
		}
		tbl, ok := db.tables.get(f[1], f[2], "")
		if !ok {
			return fmt.Errorf("index %s: table %s.%s not in snapshot", f[3], f[1], f[2])
		}
		if err := tbl.CreateIndex(f[3], f[4]); err != nil {
			return err
		}
	}
	return sr.Err()
}

// loadDatabase reads one database written by save.
func loadDatabase(sr *storage.Reader) (*Database, error) {
	db := newDatabase(sr.String())
	for range sr.Count() {
		owner, name := sr.String(), sr.String()
		tbl := sr.Table()
		if tbl == nil {
			return nil, sr.Err()
		}
		db.tables.put(owner, name, tbl)
	}
	for range sr.Count() {
		owner, raw, cp, err := loadSource[*sqlparse.CreateProcedure](sr, db.name, "stored procedure")
		if err != nil {
			return nil, err
		}
		db.procs.put(owner, cp.Name.Name(), &Procedure{
			Name: cp.Name.Name(), Owner: owner,
			Params: cp.Params, Body: cp.Body, RawSQL: raw,
		})
	}
	for range sr.Count() {
		owner, raw, ct, err := loadSource[*sqlparse.CreateTrigger](sr, db.name, "trigger")
		if err != nil {
			return nil, err
		}
		tr := &Trigger{
			Name: ct.Name.Name(), Owner: owner, Table: ct.Table.Name(),
			Operation: ct.Operation, Body: ct.Body, RawSQL: raw,
		}
		if t, ok := db.tables.get(ct.Table.Owner(), tr.Table, owner); ok {
			db.attach(t, tr)
		} else {
			db.triggers.put(owner, tr.Name, tr)
		}
	}
	return db, sr.Err()
}

// loadSource reads one stored object's owner and CREATE text and
// re-parses the text, which must be exactly one statement of type T.
func loadSource[T sqlparse.Statement](sr *storage.Reader, db, what string) (owner, raw string, st T, err error) {
	owner, raw = sr.String(), sr.String()
	if err = sr.Err(); err != nil {
		return
	}
	stmts, err := sqlparse.ParseBatch(raw)
	if err != nil {
		return owner, raw, st, fmt.Errorf("re-parsing %s in %s: %v", what, db, err)
	}
	if len(stmts) == 1 {
		if st, ok := stmts[0].(T); ok {
			return owner, raw, st, nil
		}
	}
	return owner, raw, st, fmt.Errorf("%s text in %s is not a single CREATE statement", what, db)
}

// SaveFile writes the catalog snapshot to path through storage.Publish,
// so a power cut at any point leaves the previous snapshot or the new
// one, never an empty file that the next start would refuse to load.
func (c *Catalog) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return err
	}
	return storage.Publish(storage.OSDir{Dir: filepath.Dir(path)}, filepath.Base(path), buf.Bytes())
}

// LoadFile reads a catalog snapshot from path.
func LoadFile(path string) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
