package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestColumnResolution covers every spelling that can name a FROM table
// (alias, bare name, owner.table, db.owner.table, in any letter case),
// the error of each way a column reference can fail, and the same rule in
// UPDATE, DELETE and a star projection.
func TestColumnResolution(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table Quotes (Symbol varchar(10), price float null)")
	mustExec(t, s, "create table trades (symbol varchar(10), qty int null)")
	mustExec(t, s, "insert Quotes values ('IBM', 101)")
	mustExec(t, s, "insert trades values ('IBM', 7)")
	for _, tc := range []struct{ sql, want string }{
		{"select price from Quotes where symbol = 'IBM'", "(101)"},
		{"select QUOTES.PRICE from quotes where Quotes.Symbol = 'IBM'", "(101)"},
		{"select q.price from Quotes Q where q.SYMBOL = 'IBM'", "(101)"},
		{"select sharma.quotes.price from Quotes", "error: unknown table or alias \"sharma.quotes\""},
		{"select Sharma.Quotes.price from sharma.Quotes", "(101)"},
		{"select DB.sharma.quotes.price from sharma.Quotes", "(101)"},
		{"select db.sharma.quotes.price from db.sharma.Quotes", "(101)"},
		{"select db.sharma.quotes.price from db..Quotes", "error: unknown table or alias \"db.sharma.quotes\""},
		{"select quotes.price from Quotes q", "error: unknown table or alias \"quotes\""},
		{"select sharma.quotes.price from Quotes", "error: unknown table or alias \"sharma.quotes\""},
		{"select q.qty from Quotes q", "error: column qty not found in q"},
		{"select nosuch from Quotes", "error: unknown column \"nosuch\""},
		{"select Symbol from Quotes, trades", "error: ambiguous column \"Symbol\""},
		{"select qty, T.Symbol from Quotes q, trades t where t.symbol = Q.symbol", "(7, IBM)"},
		{"select T.* from Quotes q, trades t", "(IBM, 7)"},
		{"select Q.* from Quotes q where 1 = 0", ""},
		{"select trades.* from Quotes q, trades t", "error: unknown table or alias \"trades\" in select list"},
		{"update Quotes set price = 102 where QUOTES.symbol = 'IBM'", "1 affected"},
		{"update Quotes set price = 103 where q.symbol = 'IBM'", "error: unknown table or alias \"q\""},
		{"delete sharma.Quotes where Sharma.QUOTES.Symbol = 'nosuch'", "0 affected"},
		{"delete Quotes where Quotes.qty = 1", "error: column qty not found in Quotes"},
	} {
		rs, err := s.ExecScript(tc.sql)
		var got string
		switch {
		case err != nil:
			got = "error: " + err.Error()
		case rs[len(rs)-1].Schema == nil:
			got = fmt.Sprintf("%d affected", rs[len(rs)-1].RowsAffected)
		default:
			var rows []string
			for _, r := range lastRows(rs) {
				rows = append(rows, r.String())
			}
			got = strings.Join(rows, " ")
		}
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.sql, got, tc.want)
		}
	}
}

// TestIntegerCompareBeyondFloat: INT columns compare exactly, also above
// 2^53 where two integers share one float64, on the scan path, on the
// hash-index probe path (whose float64 keys return a superset) and in a
// join.
func TestIntegerCompareBeyondFloat(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int)")
	mustExec(t, s, "create table u (b int)")
	mustExec(t, s, "insert t values (9007199254740993)")
	mustExec(t, s, "insert u values (9007199254740992)")
	queries := []struct {
		sql  string
		want int64
	}{
		{"select count(*) from t where a = 9007199254740992", 0},
		{"select count(*) from t where a > 9007199254740992", 1},
		{"select count(*) from t where a = 9007199254740993", 1},
		{"select count(*) from t, u where t.a = u.b", 0},
		{"select count(*) from t, u where t.a > u.b", 1},
	}
	check := func(path string) {
		for _, q := range queries {
			rows := lastRows(mustExec(t, s, q.sql))
			if got := rows[0][0].Int(); got != q.want {
				t.Errorf("%s: %s = %d, want %d", path, q.sql, got, q.want)
			}
		}
	}
	check("scan")
	mustExec(t, s, "create index t_a on t (a)")
	mustExec(t, s, "create index u_b on u (b)")
	check("index")
}

// TestAllocsWhereSizeFree: a WHERE costs no allocation per row, also when
// it names a qualified, mixed-case column, so a scanning UPDATE, DELETE
// and SELECT allocate the same on 64 rows as on 1 024, in count and in
// bytes: the scan reads the stored rows in place instead of copying them.
func TestAllocsWhereSizeFree(t *testing.T) {
	type cost struct{ allocs, bytes float64 }
	counts := func(n int) []cost {
		s, _ := newTestSession(t)
		mustExec(t, s, "create table q (Symbol varchar(10), price float null)")
		for i := 0; i < n; i++ {
			mustExec(t, s, fmt.Sprintf("insert q values ('Q%d', %d)", i, i))
		}
		var out []cost
		for _, sql := range []string{
			"update q set price = 1 where q.Symbol = 'nosuch'",
			"delete q where q.Symbol = 'nosuch'",
			"select price from q where q.Symbol = 'Q12'",
		} {
			run := func() {
				if _, err := s.ExecScript(sql); err != nil {
					t.Fatal(err)
				}
			}
			run()
			out = append(out, cost{testing.AllocsPerRun(20, run), bytesPerRun(20, run)})
		}
		return out
	}
	small, big := counts(64), counts(1024)
	for i, name := range []string{"UPDATE", "DELETE", "SELECT"} {
		if small[i] != big[i] {
			t.Errorf("%s: %.1f allocs and %.0f B per op on 64 rows, %.1f and %.0f B on 1024",
				name, small[i].allocs, small[i].bytes, big[i].allocs, big[i].bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call, on one
// processor.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestUnknownColumnOnEmptyTable: an UPDATE or DELETE that names an unknown
// column fails with the error SELECT gives, also when the table is empty
// and no WHERE or SET is ever evaluated, as the original server reports
// it when it compiles the statement.
func TestUnknownColumnOnEmptyTable(t *testing.T) {
	const want = `unknown column "nosuch"`
	for _, rows := range []int{0, 1} {
		s, _ := newTestSession(t)
		mustExec(t, s, "create table t (a int null)")
		for i := 0; i < rows; i++ {
			mustExec(t, s, "insert t values (1)")
		}
		for _, sql := range []string{
			"delete t where nosuch = 1",
			"update t set a = 1 where nosuch = 1",
			"update t set a = nosuch",
			"select a from t where nosuch = 1",
		} {
			if _, err := s.ExecScript(sql); err == nil || err.Error() != want {
				t.Errorf("%d rows: %s: error %v, want %s", rows, sql, err, want)
			}
		}
		if got := lastRows(mustExec(t, s, "select count(*) from t where a = 1"))[0][0].Int(); got != int64(rows) {
			t.Errorf("%d rows: %d rows hold a = 1 after the failed statements", rows, got)
		}
	}
}
