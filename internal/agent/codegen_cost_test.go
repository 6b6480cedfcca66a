package agent

import (
	"fmt"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

// TestActionProcCostFlatInShadowSize is the size-independence guard of the
// §5.6 context join: the generated Figure 14 procedure, installed the way
// installRule installs it, allocates the same per execution whether the
// shadow table holds 100 rows or 10 000. Without the shadow table's vNo
// index the join clones the whole table per call and this fails.
func TestActionProcCostFlatInShadowSize(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 10 000-row shadow table")
	}
	up, err := LocalDialer(engine.New(catalog.New()))("sharma", "")
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(sql string) {
		t.Helper()
		if _, err := up.Exec(sql); err != nil {
			t.Fatalf("%v\n%s", err, sql)
		}
	}
	mustExec("create database sentineldb\nuse sentineldb\n" +
		"create table stock (symbol varchar(10), price float null)\n" + SysTableDDL[TabContext])
	const table = "sentineldb.sharma.stock"
	mustExec(genPrimitiveEvent("sentineldb.sharma.addStk", table, sqlparse.OpInsert, "127.0.0.1", 1)[0])

	action, shadows, err := rewriteAction("sentineldb", "sharma", "select symbol, price from stock.inserted")
	if err != nil {
		t.Fatal(err)
	}
	if err := execIgnoreExists(up, genTmpTables(shadows)); err != nil {
		t.Fatal(err)
	}
	mustExec(genActionProc("sentineldb.sharma.r__Proc", "RECENT", action, shadows))

	shadow := shadowTableName(table, "inserted")
	rows := 0
	fill := func(n int) {
		for rows < n {
			var b strings.Builder
			for k := 0; k < 500 && rows < n; k++ {
				rows++
				fmt.Fprintf(&b, "insert %s values ('S%d', %d.5, %d)\n", shadow, rows, rows, rows)
			}
			mustExec(b.String())
		}
	}
	perExec := func() float64 {
		mustExec(fmt.Sprintf("delete sysContext\ninsert sysContext values ('%s', 'RECENT', 50)", shadow))
		res, err := up.Exec("execute sentineldb.sharma.r__Proc")
		if err != nil {
			t.Fatal(err)
		}
		if got := res[len(res)-1]; len(got.Rows) != 1 || got.Rows[0][0].AsString() != "S50" {
			t.Fatalf("context join returned %v", got.Rows)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := up.Exec("execute sentineldb.sharma.r__Proc"); err != nil {
				t.Fatal(err)
			}
		})
	}
	fill(100)
	small := perExec()
	fill(10000)
	large := perExec()
	t.Logf("allocs per execute: %.0f at 100 shadow rows, %.0f at 10 000", small, large)
	if large > small+8 {
		t.Errorf("execute allocs grow with the shadow table: %.0f at 100 rows, %.0f at 10 000", small, large)
	}
}
