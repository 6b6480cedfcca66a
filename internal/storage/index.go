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
// column's class have equal keys exactly when Value.Compare returns 0.
// Numerics key as a float64 (Compare compares them as float64, and Go map
// equality already treats -0 and +0 alike), character values as their
// string, datetimes as their instant.
type indexKey struct {
	num  float64
	str  string
	sec  int64
	nsec int
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
		t := v.Time()
		return indexKey{sec: t.Unix(), nsec: t.Nanosecond()}, true
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

// HasIndex reports whether any column of the table is indexed.
func (t *Table) HasIndex() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.indexes) > 0
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

// Pin fixes the table's current state for repeated index probes: the rows
// present now, for as long as nothing but appends changes the table.
func (t *Table) Pin() Pin {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Pin{t: t, gen: t.gen, n: len(t.rows)}
}

// Pin is a table state fixed for index probes; see Table.Pin.
type Pin struct {
	t   *Table
	gen uint64
	n   int
}

// Lookup returns, as clones and in ascending position order, the rows of
// the pinned state whose column col may equal key under
// sqltypes.Value.Compare — a superset of the rows that do — with their
// positions. A NULL key matches nothing. ok is false when the index cannot
// answer: col carries no index, key's class differs from the column's (a
// comparison that converts), key is NaN, or the table changed other than by
// appends since the pin.
func (p Pin) Lookup(col int, key sqltypes.Value) (rows []sqltypes.Row, pos []int, ok bool) {
	t := p.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.indexOn(col)
	if ix == nil || t.gen != p.gen {
		return nil, nil, false
	}
	if key.IsNull() {
		return nil, nil, true
	}
	if keyClass(key.Kind()) != keyClass(t.schema.Column(col).Type.Kind) {
		return nil, nil, false
	}
	k, ok := keyOf(key)
	if !ok {
		return nil, nil, false
	}
	pos = mergeBelow(ix.keys[k], ix.nan, p.n)
	rows = make([]sqltypes.Row, len(pos))
	for i, at := range pos {
		rows[i] = t.rows[at].Clone()
	}
	return rows, pos, true
}

// mergeBelow merges two ascending position lists, keeping positions < n
// (rows appended after the pin).
func mergeBelow(a, b []int, n int) []int {
	a = a[:sort.SearchInts(a, n)]
	b = b[:sort.SearchInts(b, n)]
	if len(b) == 0 {
		return append([]int(nil), a...)
	}
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// sameKey reports whether a and b land in the same index bucket.
func sameKey(a, b sqltypes.Value) bool {
	ka, oka := keyOf(a)
	kb, okb := keyOf(b)
	return oka == okb && ka == kb && a.IsNull() == b.IsNull()
}
