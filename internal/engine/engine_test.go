package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// newTestSession builds an engine with one database "db" and a session
// using it, with notifications captured in the returned slice.
func newTestSession(t testing.TB) (*Session, *[]string) {
	t.Helper()
	eng := New(catalog.New())
	var notes []string
	eng.SetNotifier(func(host string, port int, msg string) error {
		notes = append(notes, fmt.Sprintf("%s:%d/%s", host, port, msg))
		return nil
	})
	s := eng.NewSession("sharma")
	mustExec(t, s, "create database db")
	mustExec(t, s, "use db")
	return s, &notes
}

func mustExec(t testing.TB, s *Session, sql string) []*sqltypes.ResultSet {
	t.Helper()
	rs, err := s.ExecScript(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return rs
}

// lastRows returns the rows of the last result set that has a schema.
func lastRows(rs []*sqltypes.ResultSet) []sqltypes.Row {
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i].Schema != nil {
			return rs[i].Rows
		}
	}
	return nil
}

func allMessages(rs []*sqltypes.ResultSet) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Messages...)
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table stock (symbol varchar(10) not null, price float null, vol int null)")
	mustExec(t, s, "insert stock values ('IBM', 100.5, 1000)")
	mustExec(t, s, "insert into stock (symbol, price) values ('T', 20)")
	rs := mustExec(t, s, "select symbol, price, vol from stock")
	rows := lastRows(rs)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0].Str() != "IBM" || rows[0][1].Float() != 100.5 {
		t.Errorf("row0: %v", rows[0])
	}
	if !rows[1][2].IsNull() {
		t.Errorf("unset column should be NULL: %v", rows[1])
	}
}

func TestSelectWhereAndProjection(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table stock (symbol varchar(10), price float null)")
	for i := 1; i <= 5; i++ {
		mustExec(t, s, fmt.Sprintf("insert stock values ('S%d', %d)", i, i*10))
	}
	rows := lastRows(mustExec(t, s, "select symbol from stock where price > 20 and price < 50"))
	if len(rows) != 2 {
		t.Fatalf("got %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select price * 2 as dbl from stock where symbol = 'S1'"))
	if rows[0][0].Float() != 20 {
		t.Errorf("computed column: %v", rows[0])
	}
	rows = lastRows(mustExec(t, s, "select symbol from stock where symbol like 'S%' and price in (10, 30)"))
	if len(rows) != 2 {
		t.Errorf("like+in: %v", rows)
	}
}

func TestJoin(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, `create table stock (symbol varchar(10), price float null)
		create table trades (symbol varchar(10), qty int null)`)
	mustExec(t, s, `insert stock values ('IBM', 100)
		insert stock values ('T', 20)
		insert trades values ('IBM', 5)
		insert trades values ('IBM', 7)
		insert trades values ('X', 1)`)
	rows := lastRows(mustExec(t, s,
		"select s.symbol, s.price, t.qty from stock s, trades t where s.symbol = t.symbol"))
	if len(rows) != 2 {
		t.Fatalf("join rows: %v", rows)
	}
	for _, r := range rows {
		if r[0].Str() != "IBM" {
			t.Errorf("join produced %v", r)
		}
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table trades (symbol varchar(10), qty int null, price float null)")
	data := []struct {
		sym   string
		qty   int
		price float64
	}{
		{"IBM", 10, 100}, {"IBM", 20, 102}, {"T", 5, 20}, {"T", 15, 22}, {"X", 1, 5},
	}
	for _, d := range data {
		mustExec(t, s, fmt.Sprintf("insert trades values ('%s', %d, %g)", d.sym, d.qty, d.price))
	}
	rows := lastRows(mustExec(t, s, "select count(*) from trades"))
	if rows[0][0].Int() != 5 {
		t.Errorf("count(*): %v", rows[0])
	}
	rows = lastRows(mustExec(t, s, "select sum(qty), min(price), max(price), avg(qty) from trades"))
	if rows[0][0].Int() != 51 || rows[0][1].Float() != 5 || rows[0][2].Float() != 102 {
		t.Errorf("aggregates: %v", rows[0])
	}
	rows = lastRows(mustExec(t, s,
		"select symbol, sum(qty) as total from trades group by symbol having count(*) > 1 order by total desc"))
	if len(rows) != 2 {
		t.Fatalf("group rows: %v", rows)
	}
	if rows[0][0].Str() != "IBM" || rows[0][1].Int() != 30 {
		t.Errorf("grouped row0: %v", rows[0])
	}
	if rows[1][0].Str() != "T" || rows[1][1].Int() != 20 {
		t.Errorf("grouped row1: %v", rows[1])
	}
	// Aggregate over empty table yields one row.
	mustExec(t, s, "create table empty (a int null)")
	rows = lastRows(mustExec(t, s, "select count(*), sum(a) from empty"))
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty aggregates: %v", rows[0])
	}
}

func TestOrderByDistinct(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null, b varchar(5) null)")
	mustExec(t, s, `insert t values (3, 'x')
		insert t values (1, 'y')
		insert t values (2, 'x')
		insert t values (1, 'y')`)
	rows := lastRows(mustExec(t, s, "select a from t order by a"))
	got := []int64{rows[0][0].Int(), rows[1][0].Int(), rows[2][0].Int(), rows[3][0].Int()}
	if got[0] != 1 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("order: %v", got)
	}
	rows = lastRows(mustExec(t, s, "select distinct b from t order by b desc"))
	if len(rows) != 2 || rows[0][0].Str() != "y" {
		t.Errorf("distinct: %v", rows)
	}
}

func TestSelectInto(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table stock (symbol varchar(10), price float null)")
	mustExec(t, s, "insert stock values ('IBM', 100)")
	// The Figure 11 idiom: clone structure with a false predicate.
	mustExec(t, s, "select * into stock_inserted from stock where 1 = 2")
	rows := lastRows(mustExec(t, s, "select * from stock_inserted"))
	if len(rows) != 0 {
		t.Errorf("into-with-false-predicate copied rows: %v", rows)
	}
	mustExec(t, s, "alter table stock_inserted add vNo int null")
	mustExec(t, s, "insert stock_inserted select symbol, price, 1 from stock")
	rows = lastRows(mustExec(t, s, "select vNo from stock_inserted"))
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("shadow insert: %v", rows)
	}
}

func TestFromLessSelect(t *testing.T) {
	s, _ := newTestSession(t)
	rows := lastRows(mustExec(t, s, "select 1 + 1, 'a' + 'b', db_name(), user_name()"))
	if rows[0][0].Int() != 2 || rows[0][1].Str() != "ab" {
		t.Errorf("fromless: %v", rows[0])
	}
	if rows[0][2].Str() != "db" || rows[0][3].Str() != "sharma" {
		t.Errorf("context funcs: %v", rows[0])
	}
}

func TestGetdate(t *testing.T) {
	s, _ := newTestSession(t)
	fixed := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	s.eng.SetClock(func() time.Time { return fixed })
	rows := lastRows(mustExec(t, s, "select getdate()"))
	if !rows[0][0].Time().Equal(fixed) {
		t.Errorf("getdate: %v", rows[0][0])
	}
}

func TestUpdateDelete(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null, b int null)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("insert t values (%d, 0)", i))
	}
	rs := mustExec(t, s, "update t set b = a * 2 where a >= 5")
	if rs[0].RowsAffected != 5 {
		t.Errorf("update affected %d", rs[0].RowsAffected)
	}
	rows := lastRows(mustExec(t, s, "select b from t where a = 7"))
	if rows[0][0].Int() != 14 {
		t.Errorf("update result: %v", rows[0])
	}
	rs = mustExec(t, s, "delete t where a < 3")
	if rs[0].RowsAffected != 3 {
		t.Errorf("delete affected %d", rs[0].RowsAffected)
	}
	rows = lastRows(mustExec(t, s, "select count(*) from t"))
	if rows[0][0].Int() != 7 {
		t.Errorf("count after delete: %v", rows[0])
	}
	// Update referencing pre-update values: swap-like semantics.
	mustExec(t, s, "create table sw (x int null, y int null)")
	mustExec(t, s, "insert sw values (1, 2)")
	mustExec(t, s, "update sw set x = y, y = x")
	rows = lastRows(mustExec(t, s, "select x, y from sw"))
	if rows[0][0].Int() != 2 || rows[0][1].Int() != 1 {
		t.Errorf("swap update: %v", rows[0])
	}
}

func TestPrint(t *testing.T) {
	s, _ := newTestSession(t)
	rs := mustExec(t, s, "print 'hello ' + 'world'")
	msgs := allMessages(rs)
	if len(msgs) != 1 || msgs[0] != "hello world" {
		t.Errorf("print: %v", msgs)
	}
}

func TestNativeTriggerInsertedPseudoTable(t *testing.T) {
	s, notes := newTestSession(t)
	mustExec(t, s, "create table stock (symbol varchar(10), price float null)")
	mustExec(t, s, `create trigger tg on stock for insert as
print 'trigger fired'
select * from inserted
select syb_sendmsg('127.0.0.1', 10006, 'stock insert')`)
	rs := mustExec(t, s, "insert stock values ('IBM', 100)")
	msgs := allMessages(rs)
	if len(msgs) != 1 || msgs[0] != "trigger fired" {
		t.Errorf("trigger messages: %v", msgs)
	}
	found := false
	for _, r := range rs {
		if r.Schema != nil && len(r.Rows) == 1 &&
			r.Rows[0][0].Kind() == sqltypes.KindVarChar && r.Rows[0][0].Str() == "IBM" {
			found = true
		}
	}
	if !found {
		t.Errorf("inserted pseudo-table not visible: %+v", rs)
	}
	if len(*notes) != 1 || !strings.Contains((*notes)[0], "stock insert") {
		t.Errorf("notification: %v", *notes)
	}
	// Pseudo-table not visible outside trigger scope.
	if _, err := s.ExecScript("select * from inserted"); err == nil {
		t.Error("inserted visible outside trigger")
	}
}

func TestNativeTriggerDeleteAndUpdate(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "create table dlog (a int null)")
	mustExec(t, s, "create table ulog (old_a int null, new_a int null)")
	mustExec(t, s, "create trigger td on t for delete as insert dlog select * from deleted")
	mustExec(t, s, `create trigger tu on t for update as
insert ulog select d.a, i.a from deleted d, inserted i`)
	mustExec(t, s, "insert t values (1) insert t values (2) insert t values (3)")
	mustExec(t, s, "update t set a = a + 10 where a = 2")
	rows := lastRows(mustExec(t, s, "select old_a, new_a from ulog"))
	if len(rows) != 1 || rows[0][0].Int() != 2 || rows[0][1].Int() != 12 {
		t.Errorf("update trigger log: %v", rows)
	}
	mustExec(t, s, "delete t where a = 1")
	rows = lastRows(mustExec(t, s, "select a from dlog"))
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("delete trigger log: %v", rows)
	}
}

func TestTriggerNotFiredOnZeroRows(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "create trigger tg on t for delete as print 'fired'")
	rs := mustExec(t, s, "delete t where a = 99")
	if len(allMessages(rs)) != 0 {
		t.Error("trigger fired on zero affected rows")
	}
}

func TestTriggerCascadeAndDepthLimit(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table a (x int null) create table b (x int null)")
	mustExec(t, s, "create trigger ta on a for insert as insert b select * from inserted")
	mustExec(t, s, "create trigger tb on b for insert as print 'b fired'")
	rs := mustExec(t, s, "insert a values (1)")
	if msgs := allMessages(rs); len(msgs) != 1 || msgs[0] != "b fired" {
		t.Errorf("cascade: %v", msgs)
	}
	// Self-recursive trigger must hit the depth limit, not hang.
	mustExec(t, s, "create table r (x int null)")
	mustExec(t, s, "create trigger trr on r for insert as insert r values (1)")
	if _, err := s.ExecScript("insert r values (0)"); err == nil ||
		!strings.Contains(err.Error(), "nesting") {
		t.Errorf("recursion error: %v", err)
	}
}

func TestTriggerSilentOverwriteEndToEnd(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "create trigger t1 on t for insert as print 'one'")
	mustExec(t, s, "create trigger t2 on t for insert as print 'two'")
	rs := mustExec(t, s, "insert t values (1)")
	msgs := allMessages(rs)
	if len(msgs) != 1 || msgs[0] != "two" {
		t.Errorf("overwrite semantics: %v", msgs)
	}
}

func TestStoredProcedures(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table stock (symbol varchar(10), price float null)")
	mustExec(t, s, "insert stock values ('IBM', 100) insert stock values ('T', 20)")
	mustExec(t, s, `create procedure p_above @min float as
select symbol from stock where price > @min
print 'checked'`)
	rs := mustExec(t, s, "execute p_above 50")
	rows := lastRows(rs)
	if len(rows) != 1 || rows[0][0].Str() != "IBM" {
		t.Errorf("proc rows: %v", rows)
	}
	if msgs := allMessages(rs); len(msgs) != 1 || msgs[0] != "checked" {
		t.Errorf("proc messages: %v", msgs)
	}
	// Unsupplied parameter is NULL: price > NULL is unknown, no rows.
	rs = mustExec(t, s, "execute p_above")
	if rows := lastRows(rs); len(rows) != 0 {
		t.Errorf("null param rows: %v", rows)
	}
	// Too many arguments rejected.
	if _, err := s.ExecScript("execute p_above 1, 2"); err == nil {
		t.Error("extra args accepted")
	}
	// Unknown proc rejected.
	if _, err := s.ExecScript("execute nope"); err == nil {
		t.Error("missing proc accepted")
	}
}

func TestProcedureInvokedFromTrigger(t *testing.T) {
	// The paper's generated trigger ends with "execute <proc>"; verify the
	// full chain works.
	s, _ := newTestSession(t)
	mustExec(t, s, "create table stock (symbol varchar(10), price float null)")
	mustExec(t, s, "create procedure act as print 'action ran'")
	mustExec(t, s, "create trigger tg on stock for insert as execute act")
	rs := mustExec(t, s, "insert stock values ('IBM', 1)")
	if msgs := allMessages(rs); len(msgs) != 1 || msgs[0] != "action ran" {
		t.Errorf("trigger->proc: %v", msgs)
	}
}

func TestTransactions(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1)")
	mustExec(t, s, "begin tran insert t values (2) insert t values (3)")
	if !s.InTransaction() {
		t.Fatal("not in transaction")
	}
	mustExec(t, s, "rollback")
	rows := lastRows(mustExec(t, s, "select count(*) from t"))
	if rows[0][0].Int() != 1 {
		t.Errorf("rollback left %v rows", rows[0][0])
	}
	mustExec(t, s, "begin tran update t set a = 100 commit")
	rows = lastRows(mustExec(t, s, "select a from t"))
	if rows[0][0].Int() != 100 {
		t.Errorf("commit lost update: %v", rows[0])
	}
	if _, err := s.ExecScript("commit"); err == nil {
		t.Error("commit without begin accepted")
	}
	if _, err := s.ExecScript("rollback"); err == nil {
		t.Error("rollback without begin accepted")
	}
	if _, err := s.ExecScript("begin tran begin tran"); err == nil {
		t.Error("nested begin accepted")
	}
	mustExec(t, s, "rollback")
}

func TestUseAndQualifiedNames(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (7)")
	mustExec(t, s, "create database other use other")
	// Fully qualified access from another database.
	rows := lastRows(mustExec(t, s, "select a from db.sharma.t"))
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Errorf("cross-db select: %v", rows)
	}
	if _, err := s.ExecScript("select a from t"); err == nil {
		t.Error("unqualified cross-db select should fail")
	}
	if _, err := s.ExecScript("use missing"); err == nil {
		t.Error("use of missing db accepted")
	}
}

func TestDropStatements(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "create trigger tg on t for insert as print 'x'")
	mustExec(t, s, "create procedure p as print 'y'")
	mustExec(t, s, "drop trigger tg")
	rs := mustExec(t, s, "insert t values (1)")
	if len(allMessages(rs)) != 0 {
		t.Error("dropped trigger fired")
	}
	mustExec(t, s, "drop procedure p")
	if _, err := s.ExecScript("execute p"); err == nil {
		t.Error("dropped proc executed")
	}
	mustExec(t, s, "drop table t")
	if _, err := s.ExecScript("select * from t"); err == nil {
		t.Error("dropped table selectable")
	}
}

func TestErrorPaths(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int not null)")
	for _, bad := range []string{
		"insert t values (null)",                              // NOT NULL violation
		"insert t values (1, 2)",                              // arity
		"insert t (nope) values (1)",                          // unknown column
		"update t set nope = 1",                               // unknown column
		"select nope from t",                                  // unknown column
		"select * from missing",                               // unknown table
		"select a from t where a = 1 / 0",                     // division by zero (runtime, needs a row)
		"create table t (a int)",                              // duplicate table
		"execute t",                                           // not a proc
		"select x.a from t",                                   // unknown alias
		"create trigger g on missing for insert as print 'x'", // missing table
	} {
		if bad == "select a from t where a = 1 / 0" {
			mustExec(t, s, "delete t")
			mustExec(t, s, "insert t values (1)")
		}
		if _, err := s.ExecScript(bad); err == nil {
			t.Errorf("%q succeeded", bad)
		}
	}
}

func TestNullComparisonInWhere(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1) insert t values (null)")
	rows := lastRows(mustExec(t, s, "select a from t where a = 1"))
	if len(rows) != 1 {
		t.Errorf("= with null row: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select a from t where a <> 1"))
	if len(rows) != 0 {
		t.Errorf("NULL <> 1 must be unknown: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select a from t where a is null"))
	if len(rows) != 1 {
		t.Errorf("is null: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select a from t where a is not null"))
	if len(rows) != 1 {
		t.Errorf("is not null: %v", rows)
	}
}

func TestBuiltinsMisc(t *testing.T) {
	s, _ := newTestSession(t)
	rows := lastRows(mustExec(t, s, "select len('hello'), lower('ABC'), upper('abc'), abs(-5), isnull(null, 9)"))
	r := rows[0]
	if r[0].Int() != 5 || r[1].Str() != "abc" || r[2].Str() != "ABC" || r[3].Int() != 5 || r[4].Int() != 9 {
		t.Errorf("builtins: %v", r)
	}
	if _, err := s.ExecScript("select frobnicate(1)"); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestFigure11GeneratedCodeEndToEnd(t *testing.T) {
	// Execute the complete generated artifact of the paper's Example 1 and
	// verify the observable behaviour: shadow rows recorded, vNo bumped,
	// notification sent, action procedure executed.
	s, notes := newTestSession(t)
	mustExec(t, s, `create table stock (symbol varchar(10), price float null)
create table SysPrimitiveEvent (dbName varchar(30) null, userName varchar(30) null, eventName varchar(60) null, tableName varchar(30) null, operation varchar(20) null, timeStamp datetime null, vNo int null)
create table Version (vNo int null)
insert Version values (0)
insert SysPrimitiveEvent values ('db', 'sharma', 'db.sharma.addStk', 'stock', 'insert', getdate(), 0)`)
	mustExec(t, s, `select * into stock_inserted from stock where 1 = 2
alter table stock_inserted add vNo int null`)
	mustExec(t, s, `create procedure t_addStk__Proc as
print 'trigger t_addStk on primitive event addStk occurs'
select * from stock`)
	mustExec(t, s, `create trigger t_addStk on stock for insert as
update SysPrimitiveEvent set vNo = vNo + 1 where eventName = 'db.sharma.addStk'
delete Version
insert Version select vNo from SysPrimitiveEvent where eventName = 'db.sharma.addStk'
insert stock_inserted select i.*, v.vNo from inserted i, Version v
select syb_sendmsg('127.0.0.1', 10006, 'sharma stock insert begin db.sharma.addStk')
execute t_addStk__Proc`)

	rs := mustExec(t, s, "insert stock values ('IBM', 101)")
	if msgs := allMessages(rs); len(msgs) != 1 || !strings.Contains(msgs[0], "addStk occurs") {
		t.Errorf("action message: %v", msgs)
	}
	if len(*notes) != 1 || !strings.Contains((*notes)[0], "begin db.sharma.addStk") {
		t.Errorf("notification: %v", *notes)
	}
	rows := lastRows(mustExec(t, s, "select vNo from SysPrimitiveEvent"))
	if rows[0][0].Int() != 1 {
		t.Errorf("vNo after first insert: %v", rows[0])
	}
	rows = lastRows(mustExec(t, s, "select symbol, vNo from stock_inserted"))
	if len(rows) != 1 || rows[0][0].Str() != "IBM" || rows[0][1].Int() != 1 {
		t.Errorf("shadow row: %v", rows)
	}
	// Second occurrence increments vNo again.
	mustExec(t, s, "insert stock values ('T', 20)")
	rows = lastRows(mustExec(t, s, "select vNo from stock_inserted where symbol = 'T'"))
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("second occurrence vNo: %v", rows)
	}
}
