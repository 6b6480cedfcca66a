package storage

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// IndexDef declares a single-column hash index; it is what the catalog
// persists (the key map itself is rebuilt from the rows on load).
type IndexDef struct {
	Name   string
	Column string
}

// hashIndex maps the canonical key of one column's values to the ascending
// positions of the rows holding them. NULL is never a key: SQL equality
// with NULL is unknown, so no probe can match it.
type hashIndex struct {
	def  IndexDef
	col  int
	keys map[indexKey][]int
	// nan holds the positions of NaN values. sqltypes.Value.Compare finds
	// NaN equal to every number, so every probe of the index includes them.
	nan []int
}

// indexKey is the canonical form of a non-NULL value: two values of the
// column's class that Value.Compare finds equal have equal keys. Numerics
// key as a float64 (Go map equality already treats -0 and +0 alike); INT
// pairs compare exactly as int64, so integers above 2^53 that round to one
// float64 share a key, and a probe then returns a superset of the rows
// that match, which Pin.Lookup's contract allows. Character values key as
// their string, datetimes as their Unix milliseconds.
type indexKey struct {
	num float64
	str string
	ms  int64
}

// keyClass groups kinds whose values Compare without conversion: 1 numeric,
// 2 character, 3 datetime, 0 anything else (NULL).
func keyClass(k sqltypes.Kind) int {
	t := sqltypes.Type{Kind: k}
	switch {
	case t.IsNumeric():
		return 1
	case t.IsCharacter():
		return 2
	case k == sqltypes.KindDateTime:
		return 3
	}
	return 0
}

// keyOf returns v's canonical key; false for NULL and NaN, which no key
// represents.
func keyOf(v sqltypes.Value) (indexKey, bool) {
	switch keyClass(v.Kind()) {
	case 1:
		f, _ := v.AsFloat()
		return indexKey{num: f}, !math.IsNaN(f)
	case 2:
		return indexKey{str: v.Str()}, true
	case 3:
		return indexKey{ms: v.Time().UnixMilli()}, true
	}
	return indexKey{}, false
}

// add records the row at position pos. Positions arrive in ascending order,
// so every list stays sorted.
func (ix *hashIndex) add(row sqltypes.Row, pos int) {
	v := row[ix.col]
	if k, ok := keyOf(v); ok {
		ix.keys[k] = append(ix.keys[k], pos)
	} else if !v.IsNull() {
		ix.nan = append(ix.nan, pos)
	}
}

func (ix *hashIndex) rebuild(rows []sqltypes.Row) {
	ix.keys = make(map[indexKey][]int)
	ix.nan = nil
	for i, r := range rows {
		ix.add(r, i)
	}
}

// CreateIndex declares a hash index named name on column and builds it from
// the current rows. A second index on the same column, or a second index
// of the same name on this table, is an "already exists" error.
func (t *Table) CreateIndex(name, column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	col := t.schema.Index(column)
	if col < 0 {
		return fmt.Errorf("unknown column %q in create index", column)
	}
	for _, ix := range t.indexes {
		if ix.col == col {
			return fmt.Errorf("index %s on column %s already exists", ix.def.Name, ix.def.Column)
		}
		if strings.EqualFold(ix.def.Name, name) {
			return fmt.Errorf("index %s already exists", name)
		}
	}
	ix := &hashIndex{def: IndexDef{Name: name, Column: t.schema.Column(col).Name}, col: col}
	ix.rebuild(t.rows)
	t.indexes = append(t.indexes, ix)
	return nil
}

// Indexes lists the table's index declarations in creation order.
func (t *Table) Indexes() []IndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexDefs()
}

func (t *Table) indexDefs() []IndexDef {
	out := make([]IndexDef, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = ix.def
	}
	return out
}

// Layout returns the table's schema (shared, read-only) and how many
// indexes it has. Indexes are only ever added, so a caller that sees the
// same schema and count again on the same table sees the same layout.
func (t *Table) Layout() (*sqltypes.Schema, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema, len(t.indexes)
}

// IndexedColumn reports whether column position col carries an index.
func (t *Table) IndexedColumn(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexOn(col) != nil
}

func (t *Table) indexOn(col int) *hashIndex {
	for _, ix := range t.indexes {
		if ix.col == col {
			return ix
		}
	}
	return nil
}

// appendIndexed records rows just appended at positions from..len-1.
func (t *Table) appendIndexed(from int) {
	for _, ix := range t.indexes {
		for i := from; i < len(t.rows); i++ {
			ix.add(t.rows[i], i)
		}
	}
}

// changed marks a mutation other than an append: every Pin taken before it
// is stale, and every index is rebuilt when rebuild is set.
func (t *Table) changed(rebuild bool) {
	t.gen++
	if rebuild {
		for _, ix := range t.indexes {
			ix.rebuild(t.rows)
		}
	}
}

// Pin fixes the table's current state for repeated index probes: its slot
// array now, for as long as nothing but appends changes the table.
func (t *Table) Pin() Pin {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Pin{t: t, gen: t.gen, rows: t.rows[:len(t.rows):len(t.rows)]}
}

// Pin is a table state fixed for index probes; see Table.Pin.
type Pin struct {
	t    *Table
	gen  uint64
	rows []sqltypes.Row
}

// Rows returns the pinned slot array: the rows present when the pin was
// taken, in position order, shared and read-only as Table.Rows's are. It
// does not allocate.
func (p Pin) Rows() []sqltypes.Row { return p.rows }

// Lookup appends to pos, in ascending order, the positions in Rows of the
// rows whose column col may equal key under sqltypes.Value.Compare — a
// superset of the rows that do — and returns the extended slice. It
// allocates only when pos must grow. A NULL key matches nothing. ok is
// false when the index cannot answer: col carries no index, key's class
// differs from the column's (a comparison that converts), key is NaN, or
// the table changed other than by appends since the pin.
func (p Pin) Lookup(col int, key sqltypes.Value, pos []int32) (_ []int32, ok bool) {
	t := p.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.indexOn(col)
	if ix == nil || t.gen != p.gen {
		return pos, false
	}
	if key.IsNull() {
		return pos, true
	}
	if keyClass(key.Kind()) != keyClass(t.schema.Column(col).Type.Kind) {
		return pos, false
	}
	k, ok := keyOf(key)
	if !ok {
		return pos, false
	}
	return appendBelow(pos, ix.keys[k], ix.nan, len(p.rows)), true
}

// appendBelow appends to dst the merge of two ascending position lists,
// keeping positions < n (rows appended after the pin).
func appendBelow(dst []int32, a, b []int, n int) []int32 {
	a = a[:sort.SearchInts(a, n)]
	b = b[:sort.SearchInts(b, n)]
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, int32(a[0])), a[1:]
		} else {
			dst, b = append(dst, int32(b[0])), b[1:]
		}
	}
	for _, at := range a {
		dst = append(dst, int32(at))
	}
	for _, at := range b {
		dst = append(dst, int32(at))
	}
	return dst
}

// sameKey reports whether a and b land in the same index bucket.
func sameKey(a, b sqltypes.Value) bool {
	ka, oka := keyOf(a)
	kb, okb := keyOf(b)
	return oka == okb && ka == kb && a.IsNull() == b.IsNull()
}
