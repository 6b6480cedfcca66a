package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// aggregateSetup creates t(g, name, a) holding ('a', 'x', 1), ('b', 'y',
// 0) and ('a', 'z', 2), in that order.
func aggregateSetup(t *testing.T) (*Session, *[]string) {
	t.Helper()
	s, notes := newTestSession(t)
	mustExec(t, s, `create table t (g varchar(5) null, name varchar(5) null, a int null)
insert t values ('a', 'x', 1)
insert t values ('b', 'y', 0)
insert t values ('a', 'z', 2)`)
	return s, notes
}

// testTable returns the session database's table name, to fill with
// rows no INSERT statement spells.
func testTable(t *testing.T, s *Session, name string) *storage.Table {
	t.Helper()
	db, err := s.database("")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("", name, s.User())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestAggregateErrorPrecedence pins which error a grouped select reports
// when several could: the WHERE's before any aggregate's, an argument's
// evaluation error before a type error the fold meets earlier in the
// group, and none from the projection of a group HAVING drops.
func TestAggregateErrorPrecedence(t *testing.T) {
	s, _ := aggregateSetup(t)
	for _, c := range []struct{ sql, want string }{
		// sum(name) alone fails with a type error; the WHERE fails first.
		{"select sum(name) from t where 1 / a = 1", "division by zero"},
		// Row 'x' gives sum a non-numeric value before row 'y' fails to
		// evaluate 1 / a.
		{"select sum(isnull(name, 1 / a)) from t", "division by zero"},
		{"select sum(name) from t", "sum() over non-numeric value"},
		{"select min(isnull(g, 1 / a)) from t", "division by zero"},
	} {
		if _, err := s.ExecScript(c.sql); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.sql, err, c.want)
		}
	}
	// Group 'b' has min(a) = 0: its projection would divide by zero, but
	// HAVING drops it first.
	rows := lastRows(mustExec(t, s, "select g, 2 / min(a) from t group by g having min(a) > 0"))
	if len(rows) != 1 || rows[0][0].Str() != "a" || rows[0][1].Int() != 2 {
		t.Errorf("having-dropped group: %v", rows)
	}
}

// TestAggregateEmptyGroupOperands: a global aggregate over no rows still
// evaluates its other operands; only a column reference reads NULL there.
func TestAggregateEmptyGroupOperands(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)\ninsert t values (1)")
	rows := lastRows(mustExec(t, s, "select count(*) from t where a > 5 having count(*) = 0"))
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("HAVING count(*) = 0 over no rows: %v, want [(0)]", rows)
	}
	rows = lastRows(mustExec(t, s, "select count(*), 7, a, 'x' + 'y' from t where a > 5"))
	if len(rows) != 1 || rows[0][0].Int() != 0 || rows[0][1].IsNull() || rows[0][1].Int() != 7 ||
		!rows[0][2].IsNull() || rows[0][3].IsNull() || rows[0][3].Str() != "xy" {
		t.Errorf("operands of a global aggregate over no rows: %v, want [(0, 7, NULL, xy)]", rows)
	}
}

// TestAggregateValues pins the results of the folds: a global aggregate
// over no rows is one row, an all-INT sum stays INT while a mixed one is
// FLOAT, and min and max keep the first of equal values.
func TestAggregateValues(t *testing.T) {
	s, _ := aggregateSetup(t)
	rows := lastRows(mustExec(t, s, "select count(*), sum(a), count(a), min(a), avg(a) from t where a > 5"))
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() || rows[0][2].Int() != 0 ||
		!rows[0][3].IsNull() || !rows[0][4].IsNull() {
		t.Errorf("global aggregate over no rows: %v, want one row (0, NULL, 0, NULL, NULL)", rows)
	}
	if rows := lastRows(mustExec(t, s, "select g, count(*) from t where a > 5 group by g")); len(rows) != 0 {
		t.Errorf("grouped aggregate over no rows: %v", rows)
	}

	mustExec(t, s, `create table m (i int null, f float null)
insert m values (1, null)
insert m values (2, 1.0)`)
	kinds := func(sql string) []sqltypes.Kind {
		var out []sqltypes.Kind
		for _, v := range lastRows(mustExec(t, s, sql))[0] {
			out = append(out, v.Kind())
		}
		return out
	}
	if got, want := kinds("select sum(i), sum(isnull(f, i)), sum(f), avg(i)"+" from m"),
		[]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindFloat, sqltypes.KindFloat}; !reflect.DeepEqual(got, want) {
		t.Errorf("sum kinds: %v, want %v", got, want)
	}
	if v := lastRows(mustExec(t, s, "select sum(isnull(f, i)) from m"))[0][0]; v.Float() != 2 {
		t.Errorf("mixed sum: %v, want 2.0", v)
	}
	// isnull(f, i) is INT 1 in the first row and FLOAT 1.0 in the second:
	// a tie, so min and max return the one seen first.
	mustExec(t, s, "update m set i = 1")
	if got, want := kinds("select min(isnull(f, i)), max(isnull(f, i)) from m"),
		[]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt}; !reflect.DeepEqual(got, want) {
		t.Errorf("min/max of INT 1 then FLOAT 1.0: %v, want %v", got, want)
	}
	mustExec(t, s, "delete m where f is null insert m values (1, null)")
	if got, want := kinds("select min(isnull(f, i)), max(isnull(f, i)) from m"),
		[]sqltypes.Kind{sqltypes.KindFloat, sqltypes.KindFloat}; !reflect.DeepEqual(got, want) {
		t.Errorf("min/max of FLOAT 1.0 then INT 1: %v, want %v", got, want)
	}
}

// TestOrderByHiddenSourceExpression: a plain select orders by an
// expression over its source rows that is not in its output.
func TestOrderByHiddenSourceExpression(t *testing.T) {
	s, _ := aggregateSetup(t)
	mustExec(t, s, "create table u (k int null, label varchar(5) null)\ninsert u values (1, 'p')\ninsert u values (2, 'q')")
	for sql, want := range map[string]string{
		"select name from t order by a desc":                            "z x y",
		"select name from t order by 0 - a":                             "z x y",
		"select name from t order by g desc, a":                         "y x z",
		"select distinct g from t order by a":                           "b a",
		"select t.name from t, u where t.a = u.k order by u.label desc": "z x",
	} {
		var got []string
		for _, r := range lastRows(mustExec(t, s, sql)) {
			got = append(got, r[0].Str())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s: %v, want %s", sql, got, want)
		}
	}
}

// TestGroupedSendMsgOrder pins the order in which a grouped select calls
// syb_sendmsg: every GROUP BY key tuple by tuple, then group by group in
// order of first appearance, HAVING over the group's rows, then each
// output column, an aggregate over the group's rows and anything else on
// its first row.
func TestGroupedSendMsgOrder(t *testing.T) {
	s, notes := aggregateSetup(t)
	rows := lastRows(mustExec(t, s, "select g, sum(syb_sendmsg('h', 1, name)), syb_sendmsg('h', 3, name) "+
		"from t group by g, syb_sendmsg('h', 0, name) having max(syb_sendmsg('h', 2, name)) = 0"))
	if len(rows) != 2 || rows[0][0].Str() != "a" || rows[1][0].Str() != "b" {
		t.Fatalf("groups: %v", rows)
	}
	var got []string
	for _, n := range *notes {
		got = append(got, strings.TrimPrefix(n, "h:"))
	}
	want := []string{"0/x", "0/y", "0/z", "2/x", "2/z", "1/x", "1/z", "3/x", "2/y", "1/y", "3/y"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("syb_sendmsg order:\n got %v\nwant %v", got, want)
	}
}

// TestGroupKeysDoNotMerge: GROUP BY and DISTINCT tell apart rows whose
// values differ even when, run together, their characters are the same.
func TestGroupKeysDoNotMerge(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table k (x varchar(10) null, y varchar(10) null)")
	tbl := testTable(t, s, "k")
	for _, r := range [][2]string{{"a\x005:b", "c"}, {"a", "b\x005:c"}} {
		if err := tbl.Insert(sqltypes.Row{sqltypes.NewString(r[0]), sqltypes.NewString(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	if rows := lastRows(mustExec(t, s, "select x, y, count(*) from k group by x, y")); len(rows) != 2 ||
		rows[0][2].Int() != 1 || rows[1][2].Int() != 1 {
		t.Errorf("group by x, y: %v, want two groups of one row", rows)
	}
	if rows := lastRows(mustExec(t, s, "select distinct x, y from k")); len(rows) != 2 {
		t.Errorf("select distinct x, y: %d rows, want 2", len(rows))
	}
	// Values equal in kind and text still share a key.
	mustExec(t, s, "insert k values ('a', 'b\x005:c')")
	if rows := lastRows(mustExec(t, s, "select count(*) from k group by x, y")); len(rows) != 2 || rows[1][0].Int() != 2 {
		t.Errorf("equal rows: %v, want groups of 1 and 2", rows)
	}
}

// TestAllocsAggregateSizeFree: an aggregate folds as it walks the matched
// tuples, which the plan keeps as row positions in a buffer it reuses, so
// a global or grouped aggregate allocates the same on 64 rows as on 4 096,
// in count and in bytes.
func TestAllocsAggregateSizeFree(t *testing.T) {
	type cost struct{ allocs, bytes float64 }
	queries := []string{
		"select count(*) from q",
		"select sum(price) from q",
		"select count(*) from q where price > 10",
		"select grp, count(*), max(price) from q group by grp",
	}
	counts := func(n int) []cost {
		s, _ := newTestSession(t)
		mustExec(t, s, "create table q (Symbol varchar(10), grp int, price float null)")
		tbl := testTable(t, s, "q")
		for i := 0; i < n; i++ {
			row := sqltypes.Row{sqltypes.NewString(fmt.Sprintf("Q%d", i)), sqltypes.NewInt(int64(i % 4)), sqltypes.NewFloat(float64(i))}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		var out []cost
		for _, sql := range queries {
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
	small, big := counts(64), counts(4096)
	for i, sql := range queries {
		if small[i] != big[i] {
			t.Errorf("%s: %.1f allocs and %.0f B per op on 64 rows, %.1f and %.0f B on 4096",
				sql, small[i].allocs, small[i].bytes, big[i].allocs, big[i].bytes)
		}
	}
}
