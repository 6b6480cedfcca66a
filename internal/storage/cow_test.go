package storage

import (
	"fmt"
	"sync"
	"testing"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// The copy-on-write contract (package doc): what a table hands out is the
// stored value itself, and no mutation ever writes into it.

func TestHandedOutRowsAndSchemasStayUnchanged(t *testing.T) {
	all := func(sqltypes.Row) (bool, error) { return true, nil }
	for _, m := range []struct {
		name   string
		mutate func(*Table) error
	}{
		{"update", func(tbl *Table) error {
			_, _, err := tbl.Update(all, func(r sqltypes.Row) (sqltypes.Row, error) {
				r[0], r[1], r[2] = sqltypes.NewString("X"), sqltypes.NewFloat(-1), sqltypes.NewInt(-1)
				return r, nil
			})
			return err
		}},
		{"delete", func(tbl *Table) error { _, err := tbl.Delete(all); return err }},
		{"add column", func(tbl *Table) error {
			return tbl.AddColumn(sqltypes.Column{Name: "vNo", Type: sqltypes.Int, Nullable: true})
		}},
		{"rollback", func(tbl *Table) error { return tbl.ReplaceAll([]sqltypes.Row{row("Z", 9, 9)}) }},
		{"truncate", func(tbl *Table) error { return tbl.ReplaceAll(nil) }},
	} {
		t.Run(m.name, func(t *testing.T) {
			tbl := NewTable(stockSchema())
			for i, sym := range []string{"A", "B", "C", "D"} {
				if err := tbl.Insert(row(sym, float64(i), int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.CreateIndex("by_sym", "symbol"); err != nil {
				t.Fatal(err)
			}

			type handout struct {
				from string
				row  sqltypes.Row
				text string
			}
			var kept []handout
			keep := func(from string, rows ...sqltypes.Row) {
				for _, r := range rows {
					kept = append(kept, handout{from, r, fmt.Sprint(r)})
				}
			}
			keep("Rows", tbl.Rows()...)
			pin := tbl.Pin()
			looked, ok := pin.Lookup(0, sqltypes.NewString("B"), nil)
			if !ok || len(looked) != 1 {
				t.Fatalf("lookup: %v ok=%v", looked, ok)
			}
			keep("Pin.Rows", pin.Rows()[looked[0]])
			old, updated, err := tbl.Update(
				func(r sqltypes.Row) (bool, error) { keep("Update pred", r); return r[0].Str() == "C", nil },
				func(r sqltypes.Row) (sqltypes.Row, error) { r[2] = sqltypes.NewInt(30); return r, nil },
			)
			if err != nil || len(old) != 1 || len(updated) != 1 {
				t.Fatalf("update: %v %v %v", old, updated, err)
			}
			keep("Update old", old...)
			keep("Update new", updated...)
			removed, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { keep("Delete pred", r); return r[0].Str() == "D", nil })
			if err != nil || len(removed) != 1 {
				t.Fatalf("delete: %v %v", removed, err)
			}
			keep("Delete removed", removed...)
			schema := tbl.Schema()
			schemaText := schema.String()

			if err := m.mutate(tbl); err != nil {
				t.Fatal(err)
			}
			for _, h := range kept {
				if got := fmt.Sprint(h.row); got != h.text {
					t.Errorf("row from %s changed from %s to %s", h.from, h.text, got)
				}
			}
			if got := schema.String(); got != schemaText {
				t.Errorf("schema changed from %s to %s", schemaText, got)
			}
		})
	}
}

// TestReadersKeepRowsWhileWriterUpdates: rows a reader keeps are never
// written by a concurrent writer (the race detector checks that), and each
// stays the consistent image it was when read.
func TestReadersKeepRowsWhileWriterUpdates(t *testing.T) {
	tbl := NewTable(stockSchema())
	for i := 0; i < 64; i++ {
		if err := tbl.Insert(row(fmt.Sprintf("S%02d", i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("by_sym", "symbol"); err != nil {
		t.Fatal(err)
	}
	consistent := func(r sqltypes.Row) bool { return r[1].Float() == float64(r[2].Int()) }
	all := func(sqltypes.Row) (bool, error) { return true, nil }

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= 200; i++ {
			_, _, err := tbl.Update(all, func(r sqltypes.Row) (sqltypes.Row, error) {
				r[1], r[2] = sqltypes.NewFloat(float64(i)), sqltypes.NewInt(int64(i))
				return r, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				if err := tbl.AddColumn(sqltypes.Column{Name: fmt.Sprintf("c%d", i), Type: sqltypes.Int, Nullable: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []sqltypes.Row
			for {
				select {
				case <-done:
					for _, r := range kept {
						if !consistent(r) {
							t.Errorf("kept row changed: %v", r)
							return
						}
					}
					return
				default:
				}
				kept = append(kept[:0], tbl.Rows()...)
				pin := tbl.Pin()
				if pos, ok := pin.Lookup(0, sqltypes.NewString("S07"), nil); ok {
					for _, at := range pos {
						kept = append(kept, pin.Rows()[at])
					}
				}
				_ = tbl.Schema().String()
				for _, r := range kept {
					if !consistent(r) {
						t.Errorf("torn row: %v", r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAllocsScanSizeFree: reading a table costs the same number of
// allocations whatever its size, because no row is copied.
func TestAllocsScanSizeFree(t *testing.T) {
	counts := func(n int) (rows, noDelete, noUpdate float64) {
		tbl := NewTable(stockSchema())
		for i := 0; i < n; i++ {
			if err := tbl.Insert(row(fmt.Sprintf("S%d", i), float64(i), int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		sink := 0
		none := func(sqltypes.Row) (bool, error) { return false, nil }
		rows = testing.AllocsPerRun(20, func() { sink += len(tbl.Rows()) })
		noDelete = testing.AllocsPerRun(20, func() {
			if _, err := tbl.Delete(none); err != nil {
				t.Fatal(err)
			}
		})
		noUpdate = testing.AllocsPerRun(20, func() {
			if _, _, err := tbl.Update(none, func(r sqltypes.Row) (sqltypes.Row, error) { return r, nil }); err != nil {
				t.Fatal(err)
			}
		})
		return rows, noDelete, noUpdate
	}
	r64, d64, u64 := counts(64)
	r1k, d1k, u1k := counts(1024)
	for _, c := range []struct {
		name       string
		small, big float64
	}{{"Rows", r64, r1k}, {"Delete matching nothing", d64, d1k}, {"Update matching nothing", u64, u1k}} {
		if c.small != c.big {
			t.Errorf("%s: %.1f allocs/op on 64 rows, %.1f on 1024", c.name, c.small, c.big)
		}
	}
}
