package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// actionScriptSetup creates what the §5.6 script of a print rule touches:
// the sysContext table, the shadow table its constituent names, and the
// rule's action procedure.
func actionScriptSetup(t *testing.T) *Session {
	t.Helper()
	s, _ := newTestSession(t)
	mustExec(t, s, `create table sysContext (
		tableName varchar(100) not null,
		context varchar(12) not null,
		vNo int not null)`)
	mustExec(t, s, "create table stock_inserted (symbol varchar(10), price float null, vNo int)")
	mustExec(t, s, "create procedure r__Proc as\nprint 'IBM moved'")
	return s
}

// actionScript is the §5.6 script the Action Handler sends for one
// occurrence of a print rule on a primitive insert event.
func actionScript(vno int) string {
	return fmt.Sprintf("use db\n"+
		"delete sysContext where context = 'RECENT'\n"+
		"insert sysContext values ('db.sharma.stock_inserted', 'RECENT', %d)\n"+
		"execute db.sharma.r__Proc", vno)
}

// TestAllocsActionScriptWarm pins what the §5.6 script of a print rule
// costs on a warm session, each run with a fresh vNo: the script is lexed
// and its literals bound into the cached statements, never parsed again,
// its table names resolve without allocating and its DELETE runs on a
// session plan. Measured: 18; 20 when every run planned afresh, 59 when
// every run also parsed the script and lowercased every name.
func TestAllocsActionScriptWarm(t *testing.T) {
	s := actionScriptSetup(t)
	const runs = 200
	scripts := make([]string, runs+2)
	for i := range scripts {
		scripts[i] = actionScript(i + 1)
	}
	mustExec(t, s, scripts[0])
	i := 1
	avg := testing.AllocsPerRun(runs, func() {
		rs, err := s.ExecScript(scripts[i])
		if err != nil || len(rs) != 5 || rs[4].Messages[0] != "IBM moved" {
			t.Fatalf("script %d: %v %v", i, rs, err)
		}
		i++
	})
	const want = 18
	if avg > want {
		t.Errorf("warm action script: %.1f allocs/op, want <= %d", avg, want)
	}
	t.Logf("warm action script: %.1f allocs/op", avg)
}

// TestPlanCacheDropsLongBatchText: a cached template's names are slices of
// the text it was parsed from, so a batch longer than sqllex.MaxKeptSource
// is neither cached nor left in the session's lex buffer, and its text is
// collected once the caller drops it. An insert that carries a long
// comment is a few tokens of a shape that repeats: a limit on tokens
// would keep it.
func TestPlanCacheDropsLongBatchText(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table docs (id int, body varchar(10))")
	collected := make(chan struct{})
	func() {
		long := "insert docs values (1, 'a') -- " + strings.Repeat("x", 1<<16)
		runtime.SetFinalizer(unsafe.StringData(long), func(*byte) { close(collected) })
		mustExec(t, s, long)
		mustExec(t, s, long)
	}()
	if rows := lastRows(mustExec(t, s, "select id from docs")); len(rows) != 2 {
		t.Errorf("docs has %d rows, want 2", len(rows))
	}
	gone := false
	for i := 0; i < 50 && !gone; i++ {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(s)
	if !gone {
		t.Fatal("the session keeps the text of a batch longer than sqllex.MaxKeptSource")
	}
}

// figure11Setup creates what the Figure 11 native trigger of a primitive
// insert event touches, as the agent generates it: the base table, the
// SysPrimitiveEvent row, the shadow table and the trigger itself.
// Notifications go nowhere.
func figure11Setup(t *testing.T) *Session {
	t.Helper()
	s, _ := newTestSession(t)
	s.eng.SetNotifier(func(string, int, string) error { return nil })
	mustExec(t, s, `create table stock (symbol varchar(10), price float null)
create table SysPrimitiveEvent (dbName varchar(30) null, userName varchar(30) null,
	eventName varchar(100) null, tableName varchar(100) null, operation varchar(20) null,
	timeStamp datetime null, vNo int null)
insert SysPrimitiveEvent values ('db', 'sharma', 'db.sharma.addStk', 'db.sharma.stock', 'insert', getdate(), 0)`)
	mustExec(t, s, "select * into db.sharma.stock_inserted from stock where 1 = 2\n"+
		"alter table db.sharma.stock_inserted add vNo int null")
	mustExec(t, s, "create trigger db.sharma.addStk__trig\non stock\nfor insert\nas\n"+
		"update SysPrimitiveEvent set vNo = vNo + 1 where eventName = 'db.sharma.addStk'\n"+
		"insert db.sharma.stock_inserted select t.*, spe.vNo from inserted t, SysPrimitiveEvent spe where spe.eventName = 'db.sharma.addStk'\n"+
		"select syb_sendmsg('127.0.0.1', 10006, 'ECA1|db.sharma.addStk|db.sharma.stock|insert|' + spe.vNo) "+
		"from SysPrimitiveEvent spe where spe.eventName = 'db.sharma.addStk'")
	return s
}

// TestAllocsTriggerFiring pins what a warm insert costs when it fires the
// Figure 11 trigger: the trigger body's UPDATE and two SELECTs run on
// their session plans, and the pseudo-table shares its base table's
// cached nullable schema and adopts the rows it stored. Measured: 36; 38
// when the pseudo-table converted the rows again, 72 when every firing
// planned afresh.
func TestAllocsTriggerFiring(t *testing.T) {
	s := figure11Setup(t)
	const runs = 200
	batches := make([]string, runs+2)
	for i := range batches {
		batches[i] = fmt.Sprintf("insert stock values ('IBM', %d)", i+1)
	}
	mustExec(t, s, batches[0])
	i := 1
	avg := testing.AllocsPerRun(runs, func() {
		rs, err := s.ExecBatch(batches[i])
		if err != nil || len(rs) != 2 || rs[0].RowsAffected != 1 {
			t.Fatalf("insert %d: %v %v", i, rs, err)
		}
		i++
	})
	const want = 36
	if avg > want {
		t.Errorf("trigger firing: %.1f allocs/op, want <= %d", avg, want)
	}
	t.Logf("trigger firing: %.1f allocs/op", avg)
}

// TestAllocsContextActionWarm pins the §5.6 script of a rule whose action
// procedure joins stock.inserted (Figure 14): the script's statements,
// the procedure's context join over the vNo index and the user's
// insert-select each run on a session plan. Measured: 41; 82 when every
// run planned afresh.
func TestAllocsContextActionWarm(t *testing.T) {
	s := actionScriptSetup(t)
	const runs = 200
	mustExec(t, s, "select * into db.sharma.stock_inserted_tmp from db.sharma.stock_inserted where 1 = 2\n"+
		"create index stock_inserted_vNo on db.sharma.stock_inserted (vNo)\n"+
		"create table audit (symbol varchar(10), price float null, slot int null)")
	for i := 1; i <= runs+2; i++ {
		mustExec(t, s, fmt.Sprintf("insert db.sharma.stock_inserted values ('IBM', %d, %d)", 100+i, i))
	}
	mustExec(t, s, "create procedure db.sharma.f1__Proc as\n"+
		"delete db.sharma.stock_inserted_tmp\n"+
		"insert db.sharma.stock_inserted_tmp select s.* from db.sharma.stock_inserted s, sysContext c "+
		"where c.context = 'RECENT' and c.tableName = 'db.sharma.stock_inserted' and s.vNo = c.vNo\n"+
		"insert audit select symbol, price, 1 from db.sharma.stock_inserted_tmp")
	scripts := make([]string, runs+2)
	for i := range scripts {
		scripts[i] = strings.Replace(actionScript(i+1), "r__Proc", "f1__Proc", 1)
	}
	mustExec(t, s, scripts[0])
	i := 1
	avg := testing.AllocsPerRun(runs, func() {
		rs, err := s.ExecScript(scripts[i])
		if err != nil || len(rs) != 4 || rs[3].RowsAffected != 3 {
			t.Fatalf("script %d: %v %v", i, rs, err)
		}
		i++
	})
	const want = 41
	if avg > want {
		t.Errorf("context action: %.1f allocs/op, want <= %d", avg, want)
	}
	t.Logf("context action: %.1f allocs/op", avg)
	if rows := lastRows(mustExec(t, s, "select count(*) from audit")); rows[0][0].Int() != runs+2 {
		t.Errorf("audit holds %v rows, want %d", rows[0][0], runs+2)
	}
}
