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
// and its table names resolve without allocating. Measured: 20; parsing
// every run and lowercasing every name cost 59.
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
	const want = 20
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
