package storage

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// lookupPos probes a fresh pin and returns the matching positions.
func lookupPos(t *testing.T, tbl *Table, col int, key sqltypes.Value) []int {
	t.Helper()
	rows, pos, ok := tbl.Pin().Lookup(col, key)
	if !ok {
		t.Fatalf("lookup %v on column %d refused", key, col)
	}
	for i, r := range rows {
		if fmt.Sprint(r) != fmt.Sprint(tbl.Rows()[pos[i]]) { // NaN != NaN under DeepEqual
			t.Fatalf("row %d does not match position %d", i, pos[i])
		}
	}
	return pos
}

// bruteMatches is the reference: every position whose column value
// Compare-equals key.
func bruteMatches(tbl *Table, col int, key sqltypes.Value) []int {
	var out []int
	for i, r := range tbl.Rows() {
		if c, known := r[col].Compare(key); known && c == 0 {
			out = append(out, i)
		}
	}
	return out
}

func TestIndexMaintainedAcrossMutations(t *testing.T) {
	tbl := NewTable(stockSchema())
	for i, sym := range []string{"A", "B", "A", "C"} {
		if err := tbl.Insert(row(sym, float64(i), int64(i%2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("by_sym", "symbol"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_vol", "vol"); err != nil {
		t.Fatal(err)
	}
	a, one := sqltypes.NewString("A"), sqltypes.NewInt(1)
	check := func(step string) {
		t.Helper()
		for _, probe := range []struct {
			col int
			key sqltypes.Value
		}{{0, a}, {0, sqltypes.NewString("C")}, {2, one}, {2, sqltypes.NewFloat(0)}} {
			got, want := lookupPos(t, tbl, probe.col, probe.key), bruteMatches(tbl, probe.col, probe.key)
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: lookup %v = %v, scan finds %v", step, probe.key, got, want)
				}
			}
		}
	}
	check("create")
	if _, err := tbl.InsertMany([]sqltypes.Row{row("A", 9, 1), row("D", 9, 0)}); err != nil {
		t.Fatal(err)
	}
	check("insert many")
	if _, _, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) { return r[0].Str() == "A", nil },
		func(r sqltypes.Row) (sqltypes.Row, error) { r[0] = sqltypes.NewString("C"); return r, nil },
	); err != nil {
		t.Fatal(err)
	}
	check("update indexed column")
	if _, _, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) { return true, nil },
		func(r sqltypes.Row) (sqltypes.Row, error) { r[1] = sqltypes.NewFloat(7); return r, nil },
	); err != nil {
		t.Fatal(err)
	}
	check("update other column")
	if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[1].Float() == 7 && r[2].Int() == 0, nil }); err != nil {
		t.Fatal(err)
	}
	check("delete")
	if err := tbl.AddColumn(sqltypes.Column{Name: "note", Type: sqltypes.VarChar(5), Nullable: true}); err != nil {
		t.Fatal(err)
	}
	check("add column")
	if err := tbl.ReplaceAll([]sqltypes.Row{
		{a, sqltypes.Null, one, sqltypes.Null}, {a, sqltypes.Null, sqltypes.Null, sqltypes.Null},
	}); err != nil {
		t.Fatal(err)
	}
	check("replace all")
	if got := lookupPos(t, tbl, 0, a); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("after replace: %v", got)
	}
	tbl.Truncate()
	check("truncate")
	if got := lookupPos(t, tbl, 0, a); len(got) != 0 {
		t.Fatalf("after truncate: %v", got)
	}
}

// TestIndexKeyAgreesWithCompare: the canonical key puts two values in one
// bucket exactly when Compare calls them equal — ints and floats, signed
// zeros, trailing spaces, datetimes at the same instant in two zones — and
// NaN, which Compare finds equal to every number, is in every answer.
func TestIndexKeyAgreesWithCompare(t *testing.T) {
	num := NewTable(sqltypes.NewSchema(sqltypes.Column{Name: "f", Type: sqltypes.Float, Nullable: true}))
	for _, f := range []float64{1, 1.5, 0, math.Copysign(0, -1), 2, math.NaN()} {
		if err := num.Insert(sqltypes.Row{sqltypes.NewFloat(f)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := num.Insert(sqltypes.Row{sqltypes.Null}); err != nil {
		t.Fatal(err)
	}
	if err := num.CreateIndex("f", "f"); err != nil {
		t.Fatal(err)
	}
	for _, key := range []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(0), sqltypes.NewBit(false), sqltypes.NewInt(7)} {
		if got, want := lookupPos(t, num, 0, key), bruteMatches(num, 0, key); !reflect.DeepEqual(got, want) {
			t.Errorf("numeric %v: lookup %v, scan %v", key, got, want)
		}
	}
	if rows, _, ok := num.Pin().Lookup(0, sqltypes.Null); !ok || len(rows) != 0 {
		t.Errorf("NULL key: %v ok=%v", rows, ok)
	}
	for _, key := range []sqltypes.Value{sqltypes.NewFloat(math.NaN()), sqltypes.NewString("1")} {
		if _, _, ok := num.Pin().Lookup(0, key); ok {
			t.Errorf("key %v answered; it needs the scan", key)
		}
	}

	str := NewTable(sqltypes.NewSchema(sqltypes.Column{Name: "s", Type: sqltypes.Char(6), Nullable: true}))
	for _, s := range []string{"ab", "ab ", "AB", "ab"} {
		if err := str.Insert(sqltypes.Row{sqltypes.NewString(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := str.CreateIndex("s", "s"); err != nil {
		t.Fatal(err)
	}
	for _, key := range []sqltypes.Value{sqltypes.NewString("ab"), sqltypes.NewText("ab "), sqltypes.NewString("AB")} {
		if got, want := lookupPos(t, str, 0, key), bruteMatches(str, 0, key); !reflect.DeepEqual(got, want) {
			t.Errorf("character %q: lookup %v, scan %v", key.AsString(), got, want)
		}
	}

	dt := NewTable(sqltypes.NewSchema(sqltypes.Column{Name: "d", Type: sqltypes.DateTime}))
	at := time.Date(2024, 5, 6, 7, 8, 9, 10e6, time.UTC)
	for _, tm := range []time.Time{at, at.In(time.FixedZone("x", 3600)), at.Add(time.Millisecond)} {
		if err := dt.Insert(sqltypes.Row{sqltypes.NewDateTime(tm)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.CreateIndex("d", "d"); err != nil {
		t.Fatal(err)
	}
	if got := lookupPos(t, dt, 0, sqltypes.NewDateTime(at.In(time.FixedZone("y", -7200)))); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("datetime instant lookup: %v", got)
	}
}

// TestPinSeesOnlyItsState: a pin answers for the rows present when it was
// taken — later appends are hidden — and refuses once anything but an
// append has changed the table.
func TestPinSeesOnlyItsState(t *testing.T) {
	tbl := NewTable(stockSchema())
	if err := tbl.Insert(row("A", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_sym", "symbol"); err != nil {
		t.Fatal(err)
	}
	pin := tbl.Pin()
	if err := tbl.Insert(row("A", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, pos, ok := pin.Lookup(0, sqltypes.NewString("A")); !ok || !reflect.DeepEqual(pos, []int{0}) {
		t.Fatalf("pinned lookup after append: %v ok=%v", pos, ok)
	}
	if _, _, ok := pin.Lookup(1, sqltypes.NewFloat(1)); ok {
		t.Error("lookup on an unindexed column answered")
	}
	if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[1].Float() == 2, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pin.Lookup(0, sqltypes.NewString("A")); ok {
		t.Error("stale pin answered after a delete")
	}
}

func TestCreateIndexRejects(t *testing.T) {
	tbl := NewTable(stockSchema())
	if err := tbl.CreateIndex("i1", "symbol"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, col, want string }{
		{"i2", "SYMBOL", "already exists"},
		{"I1", "price", "already exists"},
		{"i3", "nope", "unknown column"},
	} {
		if err := tbl.CreateIndex(tc.name, tc.col); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CreateIndex(%s, %s) = %v, want %q", tc.name, tc.col, err, tc.want)
		}
	}
	if _, n := tbl.Layout(); n != 1 || !tbl.IndexedColumn(0) || tbl.IndexedColumn(1) {
		t.Error("index bookkeeping")
	}
}
