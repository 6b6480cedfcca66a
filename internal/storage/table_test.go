package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

func stockSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "symbol", Type: sqltypes.VarChar(10)},
		sqltypes.Column{Name: "price", Type: sqltypes.Float, Nullable: true},
		sqltypes.Column{Name: "vol", Type: sqltypes.Int, Nullable: true},
	)
}

func row(sym string, price float64, vol int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewString(sym), sqltypes.NewFloat(price), sqltypes.NewInt(vol)}
}

func TestInsertAndScan(t *testing.T) {
	tbl := NewTable(stockSchema())
	if err := tbl.Insert(row("IBM", 100, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row("T", 20, 5)); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	var seen []string
	tbl.Scan(func(r sqltypes.Row) bool {
		seen = append(seen, r[0].Str())
		return true
	})
	if len(seen) != 2 || seen[0] != "IBM" || seen[1] != "T" {
		t.Errorf("scan order: %v", seen)
	}
	// Early stop.
	count := 0
	tbl.Scan(func(r sqltypes.Row) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop scanned %d", count)
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := NewTable(stockSchema())
	if err := tbl.Insert(sqltypes.Row{sqltypes.NewString("X")}); err == nil {
		t.Error("arity violation accepted")
	}
	if err := tbl.Insert(sqltypes.Row{sqltypes.Null, sqltypes.Null, sqltypes.Null}); err == nil {
		t.Error("NOT NULL violation accepted")
	}
	// Coercion: int price should become float; long symbol truncated.
	if err := tbl.Insert(sqltypes.Row{sqltypes.NewString("VERYLONGSYMBOL"), sqltypes.NewInt(5), sqltypes.Null}); err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if rows[0][0].Str() != "VERYLONGSY" {
		t.Errorf("truncation: %q", rows[0][0].Str())
	}
	if rows[0][1].Kind() != sqltypes.KindFloat {
		t.Errorf("coercion: %v", rows[0][1].Kind())
	}
}

func TestInsertManyAtomic(t *testing.T) {
	tbl := NewTable(stockSchema())
	_, err := tbl.InsertMany([]sqltypes.Row{
		row("A", 1, 1),
		{sqltypes.Null, sqltypes.Null, sqltypes.Null}, // violates NOT NULL
	})
	if err == nil {
		t.Fatal("batch with bad row accepted")
	}
	if tbl.Len() != 0 {
		t.Errorf("partial insert: %d rows", tbl.Len())
	}
	// The returned rows are the stored ones, coerced like Insert's.
	stored, err := tbl.InsertMany([]sqltypes.Row{row("A", 1, 1), {sqltypes.NewString("VERYLONGSYMBOL"), sqltypes.NewInt(2), sqltypes.Null}})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if !reflect.DeepEqual(stored, tbl.Rows()) || stored[1][0].Str() != "VERYLONGSY" || stored[1][1].Kind() != sqltypes.KindFloat {
		t.Errorf("InsertMany returned %v, table holds %v", stored, tbl.Rows())
	}
}

func TestUpdate(t *testing.T) {
	tbl := NewTable(stockSchema())
	for i := 0; i < 5; i++ {
		if err := tbl.Insert(row(fmt.Sprintf("S%d", i), float64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	old, new, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) { return r[1].Float() >= 3, nil },
		func(r sqltypes.Row) (sqltypes.Row, error) {
			r[1] = sqltypes.NewFloat(r[1].Float() * 2)
			return r, nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 2 || len(new) != 2 {
		t.Fatalf("affected %d/%d", len(old), len(new))
	}
	if old[0][1].Float() != 3 || new[0][1].Float() != 6 {
		t.Errorf("old/new images: %v %v", old[0], new[0])
	}
	// Update with failing setter leaves the table unchanged.
	before := tbl.Rows()
	_, _, err = tbl.Update(
		func(r sqltypes.Row) (bool, error) { return true, nil },
		func(r sqltypes.Row) (sqltypes.Row, error) { return nil, fmt.Errorf("boom") },
	)
	if err == nil {
		t.Fatal("setter error swallowed")
	}
	after := tbl.Rows()
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatal("failed update mutated the table")
		}
	}
}

func TestDelete(t *testing.T) {
	tbl := NewTable(stockSchema())
	for i := 0; i < 6; i++ {
		if err := tbl.Insert(row(fmt.Sprintf("S%d", i), float64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[2].Int()%2 == 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 || tbl.Len() != 3 {
		t.Fatalf("removed %d, left %d", len(removed), tbl.Len())
	}
	// Predicate error leaves table intact.
	_, err = tbl.Delete(func(r sqltypes.Row) (bool, error) { return false, fmt.Errorf("boom") })
	if err == nil || tbl.Len() != 3 {
		t.Errorf("error delete: err=%v len=%d", err, tbl.Len())
	}
}

func TestAddColumn(t *testing.T) {
	tbl := NewTable(stockSchema())
	if err := tbl.Insert(row("A", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn(sqltypes.Column{Name: "vNo", Type: sqltypes.Int, Nullable: true}); err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows[0]) != 4 || !rows[0][3].IsNull() {
		t.Errorf("backfill: %v", rows[0])
	}
	if err := tbl.AddColumn(sqltypes.Column{Name: "x", Type: sqltypes.Int, Nullable: false}); err == nil {
		t.Error("NOT NULL add to non-empty table accepted")
	}
	if err := tbl.AddColumn(sqltypes.Column{Name: "vno", Type: sqltypes.Int, Nullable: true}); err == nil {
		t.Error("case-insensitive duplicate column accepted")
	}
}

func TestTruncateAndReplaceAll(t *testing.T) {
	tbl := NewTable(stockSchema())
	_ = tbl.Insert(row("A", 1, 1))
	tbl.Truncate()
	if tbl.Len() != 0 {
		t.Fatal("truncate failed")
	}
	if err := tbl.ReplaceAll([]sqltypes.Row{row("B", 2, 2), row("C", 3, 3)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatal("replace failed")
	}
	if err := tbl.ReplaceAll([]sqltypes.Row{{sqltypes.Null, sqltypes.Null, sqltypes.Null}}); err == nil {
		t.Error("invalid replacement accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	tbl := NewTable(stockSchema())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tbl.Insert(row(fmt.Sprintf("G%d", g), float64(i), int64(i)))
				tbl.Scan(func(r sqltypes.Row) bool { return true })
				if i%10 == 0 {
					_, _, _ = tbl.Update(
						func(r sqltypes.Row) (bool, error) { return r[2].Int() == int64(i), nil },
						func(r sqltypes.Row) (sqltypes.Row, error) { return r, nil },
					)
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 800 {
		t.Errorf("Len = %d, want 800", tbl.Len())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.Int, Nullable: true},
		sqltypes.Column{Name: "b", Type: sqltypes.VarChar(30), Nullable: true},
		sqltypes.Column{Name: "c", Type: sqltypes.Float, Nullable: true},
		sqltypes.Column{Name: "d", Type: sqltypes.DateTime, Nullable: true},
		sqltypes.Column{Name: "e", Type: sqltypes.Bit, Nullable: true},
		sqltypes.Column{Name: "f", Type: sqltypes.Text, Nullable: true},
	)
	tbl := NewTable(schema)
	now := time.Now().UTC()
	rows := []sqltypes.Row{
		{sqltypes.NewInt(-42), sqltypes.NewString("hello 'world'"), sqltypes.NewFloat(3.14159), sqltypes.NewDateTime(now), sqltypes.NewBit(true), sqltypes.NewText("long text\nwith newline")},
		{sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null},
		{sqltypes.NewInt(1 << 40), sqltypes.NewString(""), sqltypes.NewFloat(-0.0), sqltypes.NewDateTime(time.UnixMilli(0).UTC()), sqltypes.NewBit(false), sqltypes.NewText("")},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteString("tablename")
	w.WriteUint(7)
	w.WriteTable(tbl)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(buf.Bytes())
	r.Expect(Magic)
	if s := r.String(); s != "tablename" {
		t.Errorf("string record: %q", s)
	}
	if n := r.Uint(); n != 7 {
		t.Errorf("uint record: %d", n)
	}
	got := r.Table()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != tbl.Len() {
		t.Fatalf("row count %d vs %d", got.Len(), tbl.Len())
	}
	gotRows, wantRows := got.Rows(), tbl.Rows()
	for i := range wantRows {
		if !gotRows[i].Equal(wantRows[i]) {
			t.Errorf("row %d: got %v want %v", i, gotRows[i], wantRows[i])
		}
	}
	gs, ws := got.Schema(), tbl.Schema()
	if gs.String() != ws.String() {
		t.Errorf("schema: got %s want %s", gs, ws)
	}
}

func TestSnapshotBadInput(t *testing.T) {
	for _, in := range []string{"WRONGMAG", ""} {
		r := NewReader([]byte(in))
		if r.Expect(Magic); r.Err() == nil {
			t.Errorf("magic %q accepted", in)
		}
	}
	// Truncated table data.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tbl := NewTable(stockSchema())
	_ = tbl.Insert(row("A", 1, 1))
	w.WriteTable(tbl)
	_ = w.Flush()
	data := buf.Bytes()
	r := NewReader(data[:len(data)-3])
	r.Expect(Magic)
	if r.Table() != nil || r.Err() == nil {
		t.Error("truncated snapshot accepted")
	}
	// A table with no columns and 2^62 rows: the row count must fail the
	// decode, not size an allocation.
	huge := AppendUint(AppendUint([]byte(Magic), 0), 1<<62)
	r = NewReader(huge)
	r.Expect(Magic)
	if r.Table() != nil || r.Err() == nil {
		t.Error("implausible row count accepted")
	}
}

// TestReaderStickyError: the first failure sticks. Every later read
// returns a zero value, a count never exceeds the bytes left, and Err
// reports the first failure, not a later one.
func TestReaderStickyError(t *testing.T) {
	b := AppendString(nil, "ok")
	b = AppendUint(b, 1000) // a count with 0 bytes behind it
	r := NewReader(append(b, 0xff))
	if s := r.String(); s != "ok" {
		t.Fatalf("String = %q", s)
	}
	if n := r.Count(); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err %v; want 0 and an error", n, r.Err())
	}
	first := r.Err()
	if r.Byte() != 0 || r.Uint() != 0 || r.String() != "" || !r.Time().IsZero() || r.Err() != first {
		t.Fatalf("reads after a failure: err %v, first %v", r.Err(), first)
	}
}

func TestSnapshotPropertyRoundTrip(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "n", Type: sqltypes.Int, Nullable: true},
		sqltypes.Column{Name: "s", Type: sqltypes.Text, Nullable: true},
	)
	f := func(n int64, s string) bool {
		tbl := NewTable(schema)
		if err := tbl.Insert(sqltypes.Row{sqltypes.NewInt(n), sqltypes.NewText(s)}); err != nil {
			return false
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteTable(tbl)
		if w.Flush() != nil {
			return false
		}
		r := NewReader(buf.Bytes())
		r.Expect(Magic)
		got := r.Table()
		if r.Err() != nil {
			return false
		}
		rows := got.Rows()
		return len(rows) == 1 && rows[0][0].Int() == n && rows[0][1].Str() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
