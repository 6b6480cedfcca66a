// Package storage provides the heap-table storage layer of the SQL server
// substrate: concurrency-safe in-memory tables plus a binary snapshot codec
// used for database persistence, which is what makes the agent's ECA rules
// durable "using the native database functionality" as the paper requires.
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

// Schema returns a copy of the table's schema.
func (t *Table) Schema() *sqltypes.Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema.Clone()
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
// or none.
func (t *Table) InsertMany(rows []sqltypes.Row) error {
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
	t.rows = append(t.rows, conv...)
	t.appendIndexed(len(t.rows) - len(conv))
	return nil
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
// callback receives a clone and may retain it. The read lock is held for
// the duration of the scan (Update rewrites row slots in place), so fn
// must not call methods of the same table.
func (t *Table) Scan(fn func(row sqltypes.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if !fn(r.Clone()) {
			return
		}
	}
}

// Rows returns a deep copy of all rows.
func (t *Table) Rows() []sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]sqltypes.Row, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.Clone()
	}
	return out
}

// Update rewrites every row matching pred with the result of set, returning
// the old and new images of the affected rows (the engine feeds these to
// the trigger machinery as the deleted/inserted pseudo-tables).
func (t *Table) Update(pred func(sqltypes.Row) (bool, error), set func(sqltypes.Row) (sqltypes.Row, error)) (old, new []sqltypes.Row, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type change struct {
		idx int
		row sqltypes.Row
	}
	var changes []change
	for i, r := range t.rows {
		match, err := pred(r.Clone())
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
		new = append(new, c.row.Clone())
	}
	if len(changes) > 0 {
		t.changed(rekey)
	}
	return old, new, nil
}

// Delete removes every row matching pred, returning the removed rows.
func (t *Table) Delete(pred func(sqltypes.Row) (bool, error)) ([]sqltypes.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []sqltypes.Row
	kept := make([]sqltypes.Row, 0, len(t.rows))
	for _, r := range t.rows {
		match, err := pred(r.Clone())
		if err != nil {
			// kept is a fresh slice, so the table is untouched on error.
			return nil, err
		}
		if match {
			removed = append(removed, r)
		} else {
			kept = append(kept, r)
		}
	}
	t.rows = kept
	if len(removed) > 0 {
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
// NULL. Matching the server, added columns must be nullable.
func (t *Table) AddColumn(col sqltypes.Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !col.Nullable {
		return fmt.Errorf("column %q added to existing table must allow NULL", col.Name)
	}
	if err := t.schema.AddColumn(col); err != nil {
		return err
	}
	for i, r := range t.rows {
		t.rows[i] = append(r, sqltypes.Null)
	}
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
