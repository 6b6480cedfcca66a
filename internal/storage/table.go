// Package storage provides the heap-table storage layer of the SQL server
// substrate: concurrency-safe in-memory tables plus a binary snapshot codec
// used for database persistence, which is what makes the agent's ECA rules
// durable "using the native database functionality" as the paper requires.
//
// Tables are copy-on-write. A stored row, and the table's schema, is never
// written after it is stored: every mutation replaces a row slot or the
// schema pointer instead. So the rows and schemas a table hands out (Scan,
// Rows, Pin.Lookup, the Update and Delete predicates, Update's and Delete's
// returned images, Schema) are the stored values themselves, shared with
// the table and every other reader. They stay valid and unchanged after
// later mutations, and callers must treat them as read-only.
package storage

import (
	"fmt"
	"sync"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// Table is a heap of rows with a schema and optional single-column hash
// indexes (index.go). All methods are safe for concurrent use.
type Table struct {
	mu      sync.RWMutex
	schema  *sqltypes.Schema
	rows    []sqltypes.Row
	indexes []*hashIndex
	// gen counts mutations other than appends; a Pin is valid while it
	// is unchanged.
	gen uint64
}

// NewTable creates an empty table with a copy of the given schema.
func NewTable(schema *sqltypes.Schema) *Table {
	return &Table{schema: schema.Clone()}
}

// NewTableOn creates a table on schema itself, not a copy, holding rows
// as they are. The caller hands both over and must never write to them
// again. The rows are not validated: they must already fit schema, as the
// rows another table stored under the same column types do. Tables that
// share a schema or rows stay independent, since no table writes its
// schema or a stored row.
func NewTableOn(schema *sqltypes.Schema, rows []sqltypes.Row) *Table {
	return &Table{schema: schema, rows: rows}
}

// Schema returns the table's schema: shared and read-only. AddColumn
// installs a new schema rather than changing this one.
func (t *Table) Schema() *sqltypes.Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row after validating arity, NOT NULL constraints, and
// coercing each value to the column type.
func (t *Table) Insert(row sqltypes.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	conv, err := t.prepareRowLocked(row)
	if err != nil {
		return err
	}
	t.rows = append(t.rows, conv)
	t.appendIndexed(len(t.rows) - 1)
	return nil
}

// InsertMany appends several rows atomically: either all rows are inserted
// or none. It returns the stored rows in a slice of the caller's own; the
// rows are shared and read-only.
func (t *Table) InsertMany(rows []sqltypes.Row) ([]sqltypes.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	conv := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		c, err := t.prepareRowLocked(r)
		if err != nil {
			return nil, err
		}
		conv[i] = c
	}
	t.rows = append(t.rows, conv...)
	t.appendIndexed(len(t.rows) - len(conv))
	return conv, nil
}

func (t *Table) prepareRowLocked(row sqltypes.Row) (sqltypes.Row, error) {
	if len(row) != t.schema.Len() {
		return nil, fmt.Errorf("row has %d values, table has %d columns", len(row), t.schema.Len())
	}
	conv := make(sqltypes.Row, len(row))
	for i, v := range row {
		col := t.schema.Column(i)
		if v.IsNull() {
			if !col.Nullable {
				return nil, fmt.Errorf("column %q does not allow NULL", col.Name)
			}
			conv[i] = sqltypes.Null
			continue
		}
		cv, err := v.Convert(col.Type)
		if err != nil {
			return nil, fmt.Errorf("column %q: %v", col.Name, err)
		}
		conv[i] = cv
	}
	return conv, nil
}

// Scan calls fn for every row, stopping early if fn returns false. The
// callback receives the stored row: read-only, and it may retain it. The
// read lock is held for the duration of the scan (Update replaces row
// slots), so fn must not call methods of the same table.
func (t *Table) Scan(fn func(row sqltypes.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if !fn(r) {
			return
		}
	}
}

// Rows returns the stored rows in position order. The slice is the
// caller's own; the rows in it are shared and read-only.
func (t *Table) Rows() []sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]sqltypes.Row(nil), t.rows...)
}

// Update rewrites every row matching pred with the result of set, returning
// the old and new images of the affected rows (the engine feeds these to
// the trigger machinery as the deleted/inserted pseudo-tables). pred sees
// the stored row and the images are the stored rows before and after; all
// are read-only. set is called right after pred accepted a row and is the
// one callback that gets a private copy, which it may modify and return.
func (t *Table) Update(pred func(sqltypes.Row) (bool, error), set func(sqltypes.Row) (sqltypes.Row, error)) (old, new []sqltypes.Row, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type change struct {
		idx int
		row sqltypes.Row
	}
	var changes []change
	for i, r := range t.rows {
		match, err := pred(r)
		if err != nil {
			return nil, nil, err
		}
		if !match {
			continue
		}
		updated, err := set(r.Clone())
		if err != nil {
			return nil, nil, err
		}
		conv, err := t.prepareRowLocked(updated)
		if err != nil {
			return nil, nil, err
		}
		changes = append(changes, change{idx: i, row: conv})
	}
	rekey := false
	for _, c := range changes {
		for _, ix := range t.indexes {
			if !sameKey(t.rows[c.idx][ix.col], c.row[ix.col]) {
				rekey = true
			}
		}
		old = append(old, t.rows[c.idx])
		t.rows[c.idx] = c.row
		new = append(new, c.row)
	}
	if len(changes) > 0 {
		t.changed(rekey)
	}
	return old, new, nil
}

// Delete removes every row matching pred, returning the removed rows. pred
// sees the stored row, read-only.
func (t *Table) Delete(pred func(sqltypes.Row) (bool, error)) ([]sqltypes.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// kept is allocated at the first match, so a delete that matches
	// nothing allocates nothing, and it is a fresh slice, so the table is
	// untouched on error. It keeps the old capacity: the next insert then
	// appends without growing it.
	var removed, kept []sqltypes.Row
	for i, r := range t.rows {
		match, err := pred(r)
		if err != nil {
			return nil, err
		}
		switch {
		case match:
			if removed == nil {
				kept = append(make([]sqltypes.Row, 0, len(t.rows)), t.rows[:i]...)
			}
			removed = append(removed, r)
		case removed != nil:
			kept = append(kept, r)
		}
	}
	if len(removed) > 0 {
		t.rows = kept
		t.changed(true)
	}
	return removed, nil
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	t.changed(true)
}

// AddColumn appends a column to the schema, filling existing rows with
// NULL. Matching the server, added columns must be nullable. It builds a
// new schema and new rows, so the ones handed out before stay as they were.
func (t *Table) AddColumn(col sqltypes.Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !col.Nullable {
		return fmt.Errorf("column %q added to existing table must allow NULL", col.Name)
	}
	schema := t.schema.Clone()
	if err := schema.AddColumn(col); err != nil {
		return err
	}
	rows := make([]sqltypes.Row, len(t.rows))
	for i, r := range t.rows {
		wide := make(sqltypes.Row, len(r)+1)
		copy(wide, r)
		wide[len(r)] = sqltypes.Null
		rows[i] = wide
	}
	t.schema, t.rows = schema, rows
	t.changed(true)
	return nil
}

// ReplaceAll atomically swaps the table contents. Rows are validated like
// Insert. Used for trigger pseudo-tables and transaction rollback.
func (t *Table) ReplaceAll(rows []sqltypes.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	conv := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		c, err := t.prepareRowLocked(r)
		if err != nil {
			return err
		}
		conv[i] = c
	}
	t.rows = conv
	t.changed(true)
	return nil
}
