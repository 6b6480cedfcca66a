package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

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

func (d *Database) sortedTableKeys() []object {
	keys := make([]object, 0, len(d.tables))
	for k := range d.tables {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		return keys[i].name < keys[j].name
	})
	return keys
}

// save writes the database and returns its index declarations, tables in
// name order, read under the same lock.
func (d *Database) save(sw *storage.Writer) []indexDecl {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sw.WriteString(d.name)

	var decls []indexDecl
	keys := d.sortedTableKeys()
	sw.WriteUint(uint64(len(keys)))
	for _, k := range keys {
		sw.WriteString(d.owners[k])
		sw.WriteString(k.name)
		for _, def := range sw.WriteTable(d.tables[k]) {
			decls = append(decls, indexDecl{db: d.name, owner: d.owners[k], table: k.name, IndexDef: def})
		}
	}

	pkeys := make([]object, 0, len(d.procs))
	for k := range d.procs {
		pkeys = append(pkeys, k)
	}
	sort.Slice(pkeys, func(i, j int) bool { return pkeys[i].name < pkeys[j].name })
	sw.WriteUint(uint64(len(pkeys)))
	for _, k := range pkeys {
		p := d.procs[k]
		sw.WriteString(p.Owner)
		sw.WriteString(p.RawSQL)
	}

	tkeys := make([]object, 0, len(d.triggers))
	for k := range d.triggers {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool { return tkeys[i].name < tkeys[j].name })
	sw.WriteUint(uint64(len(tkeys)))
	for _, k := range tkeys {
		tr := d.triggers[k]
		sw.WriteString(tr.Owner)
		sw.WriteString(tr.RawSQL)
	}
	return decls
}

// Load reads a snapshot stream written by Save, returning a fresh catalog.
func Load(r io.Reader) (*Catalog, error) {
	sr, err := storage.NewReader(r)
	if err != nil {
		return nil, err
	}
	c := &Catalog{dbs: make(map[string]*Database)}
	ndbs, err := sr.ReadUint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ndbs; i++ {
		db, err := loadDatabase(sr)
		if err != nil {
			return nil, err
		}
		c.dbs[lower(db.name)] = db
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
	n, err := sr.ReadUint()
	if errors.Is(err, io.EOF) {
		return nil
	}
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		var f [5]string
		for j := range f {
			if f[j], err = sr.ReadString(); err != nil {
				return err
			}
		}
		db, ok := c.dbs[lower(f[0])]
		if !ok {
			return fmt.Errorf("index %s: database %s not in snapshot", f[3], f[0])
		}
		tbl, ok := db.tables[key(f[1], f[2])]
		if !ok {
			return fmt.Errorf("index %s: table %s.%s not in snapshot", f[3], f[1], f[2])
		}
		if err := tbl.CreateIndex(f[3], f[4]); err != nil {
			return err
		}
	}
	return nil
}

func lower(s string) string {
	b := []byte(s)
	for i, ch := range b {
		if 'A' <= ch && ch <= 'Z' {
			b[i] = ch + 'a' - 'A'
		}
	}
	return string(b)
}

func loadDatabase(sr *storage.Reader) (*Database, error) {
	name, err := sr.ReadString()
	if err != nil {
		return nil, err
	}
	db := newDatabase(name)

	ntables, err := sr.ReadUint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ntables; i++ {
		owner, err := sr.ReadString()
		if err != nil {
			return nil, err
		}
		tname, err := sr.ReadString()
		if err != nil {
			return nil, err
		}
		tbl, err := sr.ReadTable()
		if err != nil {
			return nil, err
		}
		k := key(owner, tname)
		db.tables[k] = tbl
		db.owners[k] = owner
	}

	nprocs, err := sr.ReadUint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nprocs; i++ {
		owner, err := sr.ReadString()
		if err != nil {
			return nil, err
		}
		raw, err := sr.ReadString()
		if err != nil {
			return nil, err
		}
		stmts, err := sqlparse.ParseBatch(raw)
		if err != nil {
			return nil, fmt.Errorf("re-parsing stored procedure in %s: %v", name, err)
		}
		cp, ok := stmts[0].(*sqlparse.CreateProcedure)
		if !ok || len(stmts) != 1 {
			return nil, fmt.Errorf("stored procedure text in %s is not a CREATE PROCEDURE", name)
		}
		db.procs[key(owner, cp.Name.Name())] = &Procedure{
			Name: cp.Name.Name(), Owner: owner,
			Params: cp.Params, Body: cp.Body, RawSQL: raw,
		}
	}

	ntrig, err := sr.ReadUint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ntrig; i++ {
		owner, err := sr.ReadString()
		if err != nil {
			return nil, err
		}
		raw, err := sr.ReadString()
		if err != nil {
			return nil, err
		}
		stmts, err := sqlparse.ParseBatch(raw)
		if err != nil {
			return nil, fmt.Errorf("re-parsing trigger in %s: %v", name, err)
		}
		ct, ok := stmts[0].(*sqlparse.CreateTrigger)
		if !ok || len(stmts) != 1 {
			return nil, fmt.Errorf("trigger text in %s is not a CREATE TRIGGER", name)
		}
		tr := &Trigger{
			Name: ct.Name.Name(), Owner: owner, Table: ct.Table.Name(),
			Operation: ct.Operation, Body: ct.Body, RawSQL: raw,
		}
		db.triggers[key(owner, tr.Name)] = tr
		if tk, ok := resolve(db, db.tables, ct.Table.Owner(), tr.Table, owner); ok {
			ops := db.trigByTable[tk]
			if ops == nil {
				ops = make(map[sqlparse.TriggerOp]*Trigger)
				db.trigByTable[tk] = ops
			}
			ops[tr.Operation] = tr
		}
	}
	return db, nil
}

// SaveFile writes the catalog snapshot atomically to path (write to a temp
// file in the same directory, then rename).
func (c *Catalog) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ecasnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
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
