package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

func mustParseOne(t *testing.T, src string) Statement {
	t.Helper()
	stmts, err := ParseBatch(src)
	if err != nil {
		t.Fatalf("ParseBatch(%q): %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("ParseBatch(%q) returned %d statements", src, len(stmts))
	}
	return stmts[0]
}

func TestParseCreateTable(t *testing.T) {
	st := mustParseOne(t, "create table stock (symbol varchar(10) not null, price float null, vol int)")
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name.Name() != "stock" || len(ct.Columns) != 3 {
		t.Fatalf("bad parse: %+v", ct)
	}
	if ct.Columns[0].Type != sqltypes.VarChar(10) || ct.Columns[0].Nullable {
		t.Errorf("col0: %+v", ct.Columns[0])
	}
	if !ct.Columns[1].Nullable || !ct.Columns[1].NullSpecified {
		t.Errorf("col1: %+v", ct.Columns[1])
	}
	if ct.Columns[2].NullSpecified {
		t.Errorf("col2 should have no explicit null spec: %+v", ct.Columns[2])
	}
}

func TestParseQualifiedNames(t *testing.T) {
	st := mustParseOne(t, "drop table sentineldb.sharma.stock_inserted")
	dt := st.(*DropTable)
	if dt.Name.Database() != "sentineldb" || dt.Name.Owner() != "sharma" || dt.Name.Name() != "stock_inserted" {
		t.Errorf("bad name: %+v", dt.Name)
	}
	st = mustParseOne(t, "drop table mydb..t")
	dt = st.(*DropTable)
	if dt.Name.Database() != "mydb" || dt.Name.Owner() != "" || dt.Name.Name() != "t" {
		t.Errorf("db..t parse: %+v", dt.Name)
	}
}

func TestParseInsertValues(t *testing.T) {
	st := mustParseOne(t, "insert into stock (symbol, price) values ('IBM', 100.5), ('T', 20)")
	ins := st.(*Insert)
	if len(ins.Values) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("bad insert: %+v", ins)
	}
	lit := ins.Values[0][0].(*Literal)
	if lit.Value.Str() != "IBM" {
		t.Errorf("first value: %v", lit.Value)
	}
}

func TestParseInsertSelect(t *testing.T) {
	st := mustParseOne(t, "insert stock_inserted select * from inserted")
	ins := st.(*Insert)
	if ins.Select == nil || !ins.Select.Items[0].Star {
		t.Fatalf("bad insert-select: %+v", ins)
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParseOne(t, `select distinct s.symbol, price * 2 as dbl into result
		from stock s, trades t
		where s.symbol = t.symbol and price > 10 or vol is not null
		group by s.symbol order by price desc, vol`)
	sel := st.(*Select)
	if !sel.Distinct || sel.Into == nil || sel.Into.Name() != "result" {
		t.Fatalf("distinct/into: %+v", sel)
	}
	if len(sel.From) != 2 || sel.From[0].Alias != "s" || sel.From[1].Alias != "t" {
		t.Errorf("from: %+v", sel.From)
	}
	if len(sel.Items) != 2 || sel.Items[1].Alias != "dbl" {
		t.Errorf("items: %+v", sel.Items)
	}
	if len(sel.GroupBy) != 1 || len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("group/order: %+v", sel)
	}
	if sel.Where == nil {
		t.Error("missing where")
	}
}

func TestParseSelectStarQualified(t *testing.T) {
	st := mustParseOne(t, "select s.*, t.symbol from stock s, trades t")
	sel := st.(*Select)
	if !sel.Items[0].Star || sel.Items[0].StarTable.Name() != "s" {
		t.Errorf("qualified star: %+v", sel.Items[0])
	}
	if sel.Items[1].Star {
		t.Errorf("second item should not be star")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st := mustParseOne(t, "update SysPrimitiveEvent set vNo = vNo + 1 where eventName = 'x'")
	up := st.(*Update)
	if len(up.Set) != 1 || up.Set[0].Column != "vNo" || up.Where == nil {
		t.Fatalf("update: %+v", up)
	}
	st = mustParseOne(t, "delete from stock where price < 0")
	del := st.(*Delete)
	if del.Table.Name() != "stock" || del.Where == nil {
		t.Fatalf("delete: %+v", del)
	}
	st = mustParseOne(t, "delete Version")
	del = st.(*Delete)
	if del.Table.Name() != "Version" || del.Where != nil {
		t.Fatalf("bare delete: %+v", del)
	}
}

func TestParseTriggerWithMultiStatementBody(t *testing.T) {
	src := `create trigger t_addStk on stock for insert as
		insert stock_inserted select * from inserted
		select syb_sendmsg('127.0.0.1', 10006, 'msg')
		update SysPrimitiveEvent set vNo = vNo + 1 where eventName = 'addStk'
		execute t_addStk__Proc`
	st := mustParseOne(t, src)
	tr := st.(*CreateTrigger)
	if tr.Operation != OpInsert || tr.Table.Name() != "stock" {
		t.Fatalf("trigger header: %+v", tr)
	}
	if len(tr.Body) != 4 {
		t.Fatalf("body has %d statements, want 4", len(tr.Body))
	}
	if _, ok := tr.Body[3].(*Execute); !ok {
		t.Errorf("last body stmt: %T", tr.Body[3])
	}
	if !strings.Contains(tr.RawBody, "syb_sendmsg") {
		t.Errorf("RawBody lost content: %q", tr.RawBody)
	}
}

func TestParseProcedure(t *testing.T) {
	src := `create procedure p_check @sym varchar(10), @min float as
		select * from stock where symbol = @sym and price > @min
		print 'done'`
	st := mustParseOne(t, src)
	pr := st.(*CreateProcedure)
	if len(pr.Params) != 2 || pr.Params[0].Name != "@sym" || pr.Params[1].Type != sqltypes.Float {
		t.Fatalf("params: %+v", pr.Params)
	}
	if len(pr.Body) != 2 {
		t.Fatalf("body: %d statements", len(pr.Body))
	}
}

func TestParseExecute(t *testing.T) {
	st := mustParseOne(t, "exec sentineldb.sharma.t_addStk__Proc")
	ex := st.(*Execute)
	if ex.Proc.String() != "sentineldb.sharma.t_addStk__Proc" || len(ex.Args) != 0 {
		t.Fatalf("exec: %+v", ex)
	}
	st = mustParseOne(t, "execute p_check 'IBM', 10.5")
	ex = st.(*Execute)
	if len(ex.Args) != 2 {
		t.Fatalf("exec args: %+v", ex.Args)
	}
}

func TestParseMisc(t *testing.T) {
	if _, ok := mustParseOne(t, "use sentineldb").(*UseDatabase); !ok {
		t.Error("use")
	}
	if _, ok := mustParseOne(t, "create database d").(*CreateDatabase); !ok {
		t.Error("create database")
	}
	if _, ok := mustParseOne(t, "begin tran").(*BeginTran); !ok {
		t.Error("begin tran")
	}
	if _, ok := mustParseOne(t, "commit").(*CommitTran); !ok {
		t.Error("commit")
	}
	if _, ok := mustParseOne(t, "rollback transaction").(*RollbackTran); !ok {
		t.Error("rollback")
	}
	pr := mustParseOne(t, "print 'hello ' + 'world'").(*Print)
	if pr.Value == nil {
		t.Error("print expr")
	}
	at := mustParseOne(t, "alter table stock_inserted add vNo int null").(*AlterTableAdd)
	if at.Column.Name != "vNo" || !at.Column.Nullable {
		t.Errorf("alter: %+v", at.Column)
	}
}

func TestParseExprForms(t *testing.T) {
	cases := []string{
		"1 + 2 * 3",
		"-x",
		"not a = b",
		"a like 'x%'",
		"a not like 'x%'",
		"b in (1, 2, 3)",
		"b not in ('a')",
		"c is null",
		"c is not null",
		"getdate()",
		"count(*)",
		"sum(price * vol)",
		"(a or b) and c",
		"sysContext.vNo = sentineldb.sharma.stock_inserted.vNo",
		"@param + 1",
	}
	for _, src := range cases {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 = 7 and not 1 = 2")
	if err != nil {
		t.Fatal(err)
	}
	want := "(((1 + (2 * 3)) = 7) and (not (1 = 2)))"
	if got := e.SQL(); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestParseCreateIndex(t *testing.T) {
	for _, src := range []string{
		"create index stock_vNo on sentineldb.sharma.stock_inserted (vNo)",
		"CREATE INDEX stock_vNo ON sentineldb.sharma.stock_inserted(vNo);",
	} {
		ci, ok := mustParseOne(t, src).(*CreateIndex)
		if !ok {
			t.Fatalf("%q: got %T", src, mustParseOne(t, src))
		}
		if ci.Name != "stock_vNo" || ci.Table.String() != "sentineldb.sharma.stock_inserted" || ci.Column != "vNo" {
			t.Errorf("%q: %+v", src, ci)
		}
	}
	for src, want := range map[string]string{
		"create index i stock (vNo)":       `expected "on"`,
		"create index i on stock":          `expected "("`,
		"create index i on stock vNo":      `expected "("`,
		"create index i on stock (a, b)":   "one column",
		"create index i on stock ()":       "expected identifier",
		"create index on stock (vNo)":      `expected "on"`,
		"create index i on stock (vNo":     `expected ")"`,
		"create unique index i on t (vNo)": "unsupported CREATE",
	} {
		if _, err := ParseBatch(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseBatch(%q) = %v, want error containing %s", src, err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"create table t",
		"create table t (a unknowntype)",
		"create trigger t on x for truncate as print 'x'",
		"create trigger t on x for insert as",
		"insert into t",
		"select from",
		"update t where a = 1",
		"frobnicate the database",
		"drop index i",
		"create view v as select 1",
		"begin",
		"exec",
		"a.b.c.d.e",
		"select * from t where",
		"select 1 +",
		"print 'a' 'b' extra",
	}
	for _, src := range bad {
		if stmts, err := ParseBatch(src); err == nil {
			t.Errorf("ParseBatch(%q) succeeded: %+v", src, stmts)
		}
	}
}

// splitBatches cuts src into all of its batches with NextBatch.
func splitBatches(src string) []string {
	var out []string
	for batch, rest, ok := NextBatch(src); ok; batch, rest, ok = NextBatch(rest) {
		out = append(out, batch)
	}
	return out
}

// parseScript parses src batch by batch, concatenating the statements.
func parseScript(src string) ([]Statement, error) {
	var out []Statement
	for _, batch := range splitBatches(src) {
		stmts, err := ParseBatch(batch)
		if err != nil {
			return nil, err
		}
		out = append(out, stmts...)
	}
	return out, nil
}

func TestSplitBatches(t *testing.T) {
	src := "select 1\ngo\nselect 2\nGO\n\ngo\nselect 3"
	batches := splitBatches(src)
	if len(batches) != 3 {
		t.Fatalf("got %d batches: %q", len(batches), batches)
	}
	for i, want := range []string{"select 1", "select 2", "select 3"} {
		if strings.TrimSpace(batches[i]) != want {
			t.Errorf("batch %d = %q", i, batches[i])
		}
	}
}

// TestNextBatchSlicesSource: a batch is the text between GO lines as the
// client sent it, a slice of the script, and cutting one off allocates
// nothing.
func TestNextBatchSlicesSource(t *testing.T) {
	src := "select 1\r\n go \nGO\n  \nselect 2\nselect 3\n"
	want := []string{"select 1\r\n", "  \nselect 2\nselect 3\n"}
	if got := splitBatches(src); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("batches = %q, want %q", got, want)
	}
	for _, s := range []string{"", "\n go\n", "GO"} {
		if batch, rest, ok := NextBatch(s); ok {
			t.Errorf("NextBatch(%q) = %q, %q, true", s, batch, rest)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, rest, ok := NextBatch(src); ok; _, rest, ok = NextBatch(rest) {
		}
	}); avg != 0 {
		t.Errorf("NextBatch: %.1f allocs/op, want 0", avg)
	}
}

func TestParseScript(t *testing.T) {
	src := `create table t (a int)
go
insert t values (1)
insert t values (2)
go
select * from t`
	stmts, err := parseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

// TestRoundTrip checks parse → SQL() → parse → SQL() is a fixpoint for a
// corpus covering every statement form.
func TestRoundTrip(t *testing.T) {
	corpus := []string{
		"create database sentineldb",
		"use sentineldb",
		"create table stock (symbol varchar(10) not null, price float null, ts datetime)",
		"drop table stock",
		"alter table stock add vNo int null",
		"create index stock_vNo on db.u.stock_inserted (vNo)",
		"insert stock (symbol, price) values ('IBM', 100.5)",
		"insert stock select * from old_stock where price > 1",
		"select distinct symbol, price as p from stock s where price >= 10 group by symbol having count(*) > 1 order by price desc",
		"select * into backup_stock from stock",
		"select s.* from stock s",
		"update stock set price = price * 1.1, vol = 0 where symbol like 'I%'",
		"delete stock where price is null",
		"create trigger tg on stock for update as\nprint 'updated'\nselect count(*) from stock",
		"drop trigger tg",
		"create procedure p @a int as\nselect @a + 1",
		"drop procedure p",
		"execute p 5",
		"print 'hello'",
		"begin transaction",
		"commit transaction",
		"rollback transaction",
		"select getdate(), count(*), syb_sendmsg('127.0.0.1', 10006, 'x')",
		"select * from t where a in (1, 2) and b not in (3) and c is not null and not d = 1",
	}
	for _, src := range corpus {
		st1, err := ParseBatch(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		sql1 := make([]string, len(st1))
		for i, s := range st1 {
			sql1[i] = s.SQL()
		}
		st2, err := ParseBatch(strings.Join(sql1, "\n"))
		if err != nil {
			t.Errorf("re-parse of %q → %q: %v", src, sql1, err)
			continue
		}
		if len(st1) != len(st2) {
			t.Errorf("statement count changed: %q", src)
			continue
		}
		for i := range st2 {
			if st2[i].SQL() != sql1[i] {
				t.Errorf("not a fixpoint:\n  src:  %s\n  sql1: %s\n  sql2: %s", src, sql1[i], st2[i].SQL())
			}
		}
	}
}

// TestParseFigure11 parses the paper's Figure 11 generated code (modulo
// the paper's own typos), the primary codegen artifact.
func TestParseFigure11(t *testing.T) {
	src := `/* create two tables */
select * into sentineldb.sharma.stock_inserted from stock where 1 = 2
alter table sentineldb.sharma.stock_inserted add vNo int null
go
create procedure sentineldb.sharma.t_addStk__Proc as
print 'trigger t_addStk on primitive event addStk occurs'
select * from stock
go
create trigger sentineldb.sharma.t_addStk
on stock
for insert
as
insert sentineldb.sharma.stock_inserted
select * from inserted, Version
select syb_sendmsg('128.227.205.215', 10006, 'sharma stock insert begin sentineldb.sharma.addStk')
update SysPrimitiveEvent set vNo = vNo + 1 where eventName = 'sentineldb.sharma.addStk'
delete Version
insert Version select vNo from SysPrimitiveEvent where eventName = 'sentineldb.sharma.addStk'
execute sentineldb.sharma.t_addStk__Proc
go`
	stmts, err := parseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("got %d top-level statements, want 4", len(stmts))
	}
	tr, ok := stmts[3].(*CreateTrigger)
	if !ok {
		t.Fatalf("last statement is %T", stmts[3])
	}
	if len(tr.Body) != 6 {
		t.Errorf("trigger body has %d statements, want 6", len(tr.Body))
	}
}
