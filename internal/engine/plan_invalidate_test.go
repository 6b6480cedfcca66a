package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// The statement-plan invalidation cases: a warm session runs one
// statement twice, something it depends on changes, and it runs the
// statement again. A reference session runs the same batches but empties
// its plan cache before each, so every statement is planned afresh in
// every batch. Both must answer identically, error text included.

type invalidateCase struct {
	name   string
	setup  string // run by both sessions
	stmt   string // a batch the warm session runs before and after change
	change string
}

var invalidateCases = []invalidateCase{
	{
		name:   "create index on a joined column",
		setup:  "create table a (id int, k int null)\ncreate table b (k int null, v varchar(5) null)\ninsert a values (1, 10)\ninsert a values (2, 20)\ninsert b values (20, 'x')\ninsert b values (10, 'y')",
		stmt:   "select a.id, b.v from a, b where a.k = b.k order by a.id",
		change: "create index b_k on b (k)\ninsert b values (10, 'z')",
	},
	{
		name:   "alter table add",
		setup:  "create table t (a int null, s varchar(5) null)\ninsert t values (1, 'x')",
		stmt:   "select * from t where a = 1\nupdate t set s = 'y' where a = 1\ndelete t where a = 2",
		change: "alter table t add c int null",
	},
	{
		name:   "drop and re-create a table",
		setup:  "create table t (a int null, s varchar(5) null)\ninsert t values (1, 'x')",
		stmt:   "select * from t where a = 1\nupdate t set s = 'y' where a = 1\ndelete t where a = 2\nselect s, a from t",
		change: "drop table t\ncreate table t (s varchar(5) null, b float null, a int null)\ninsert t values ('q', 2.5, 1)\ninsert t values ('r', 3.5, 2)",
	},
	{
		name:   "use of another database with a same-named table",
		setup:  "create table t (a int null, s varchar(5) null)\ninsert t values (1, 'x')\ncreate database db2\ncreate table db2..t (s varchar(5) null, a int null)\ninsert db2..t values ('q', 1)",
		stmt:   "select * from t where a = 1\nupdate t set s = 'y' where a = 1\nselect * from t",
		change: "use db2",
	},
	{
		name:   "drop and re-create a procedure",
		setup:  "create table t (a int null, s varchar(5) null)\ninsert t values (1, 'x')\ncreate procedure p as\nselect a from t where a = 1",
		stmt:   "execute p",
		change: "drop procedure p\ncreate procedure p as\nselect s from t where a = 1",
	},
	{
		// The trigger body's INSERT ... SELECT runs once per nesting
		// level, each time on that level's inserted pseudo-table.
		name:   "an insert trigger that re-enters its own statement",
		setup:  "create table t (a int null)\ncreate trigger tr on t for insert as\ninsert t select a + 1 from inserted where a < 5\nselect count(*), max(a) from inserted",
		stmt:   "insert t values (1)\nselect a from t order by a",
		change: "insert t values (3)",
	},
	{
		// The trigger body's UPDATE fires the trigger again while it runs.
		name:   "an update trigger that re-enters its own statement",
		setup:  "create table t (a int null, n int null)\ninsert t values (1, 0)\ncreate trigger tr on t for update as\nupdate t set a = a + 1, n = n + 1 where a < 6\nselect a, n from deleted",
		stmt:   "update t set n = 0 where a < 6\nselect * from t",
		change: "insert t values (2, 0)",
	},
	{
		// The join probes the index on x.k only while @k is declared; a
		// plan built inside the procedure must not answer the top-level
		// firing, whose scan fails on the undeclared variable.
		name: "a variable declared in one run and not the next",
		setup: "create table x (k int null, v int null)\ninsert x values (2, 7)\ncreate index x_k on x (k)\n" +
			"create table t (a int null)\ncreate trigger tr on t for insert as\nselect x.v from x where x.v = @k and x.k = 1\ngo\n" +
			"create procedure p @k int as\ninsert t values (@k)",
		stmt:   "execute p 7",
		change: "insert t values (1)",
	},
}

func TestPlanInvalidation(t *testing.T) {
	for _, tc := range invalidateCases {
		t.Run(tc.name, func(t *testing.T) {
			warm, _ := newTestSession(t)
			fresh, _ := newTestSession(t)
			for i, batch := range []string{tc.setup, tc.stmt, tc.stmt, tc.change, tc.stmt} {
				fresh.forget()
				if got, want := dump(warm.ExecScript(batch)), dump(fresh.ExecScript(batch)); got != want {
					t.Fatalf("batch %d:\n%s\nwarm:\n%s\nfresh:\n%s", i, batch, got, want)
				}
			}
			if got, want := dumpTables(t, warm), dumpTables(t, fresh); got != want {
				t.Errorf("tables differ\nwarm:\n%s\nfresh:\n%s", got, want)
			}
		})
	}
}

// TestPlanRecursiveTriggers: a trigger body's statement that runs again
// at each nesting level reads that level's pseudo-tables, on a cold plan
// and on a warm one. The insert trigger's SELECT runs at each level after
// the level above has finished it; the update trigger's UPDATE runs at
// each level while the levels above are still inside it.
func TestPlanRecursiveTriggers(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)\ncreate trigger ti on t for insert as\n"+
		"insert t select a + 1 from inserted where a < 5\nselect max(a) from inserted")
	mustExec(t, s, "create table u (a int null, n int null)\ncreate trigger tu on u for update as\n"+
		"update u set a = a + 1 where a < 4\nselect a from deleted")
	levels := func(rs []*sqltypes.ResultSet) string {
		var b strings.Builder
		for _, r := range rs {
			if r.Schema != nil {
				fmt.Fprintf(&b, "%s ", r.Rows[0][0].AsString())
			}
		}
		return b.String()
	}
	for run := 0; run < 3; run++ {
		if got := levels(mustExec(t, s, "insert t values (1)")); got != "5 4 3 2 1 " {
			t.Errorf("run %d: insert trigger levels saw %q", run, got)
		}
		mustExec(t, s, "delete u\ninsert u values (1, 0)")
		if got := levels(mustExec(t, s, "update u set n = 1 where a = 1")); got != "3 2 1 1 " {
			t.Errorf("run %d: update trigger levels saw %q", run, got)
		}
	}
}

// TestPlanFollowsNewIndex: a plan built while no joined column had an
// index scans; after CREATE INDEX the same node's plan probes, a run with
// nothing changed keeps the plan as it was, and a second index replans.
func TestPlanFollowsNewIndex(t *testing.T) {
	s, _ := newTestSession(t)
	tc := invalidateCases[0]
	mustExec(t, s, tc.setup)
	probing := func() (n int, p *plan) {
		for _, q := range s.plans {
			if q.steps != nil {
				n, p = n+1, q
			}
		}
		return n, p
	}
	mustExec(t, s, tc.stmt)
	if n, _ := probing(); n != 0 {
		t.Fatalf("%d plans probe before any index exists", n)
	}
	mustExec(t, s, "create index b_k on b (k)")
	mustExec(t, s, tc.stmt)
	n, p := probing()
	if n != 1 {
		t.Fatalf("%d plans probe after CREATE INDEX, want 1", n)
	}
	frames := p.frames[0]
	mustExec(t, s, tc.stmt)
	if p.frames[0] != frames {
		t.Error("an unchanged table replanned the statement")
	}
	mustExec(t, s, "create index a_k on a (k)")
	mustExec(t, s, tc.stmt)
	if p.frames[0] == frames {
		t.Error("a second index left the plan as it was")
	}
}

// TestPlanInUseIsNotShared: a node that runs again while its plan is in
// use gets a plan of its own, and the kept plan serves the next run.
func TestPlanInUseIsNotShared(t *testing.T) {
	s, _ := newTestSession(t)
	st := &sqlparse.Select{}
	s.reuse = true
	p := s.planFor(st)
	q := s.planFor(st)
	if q == p {
		t.Fatal("a plan in use was handed out again")
	}
	q.release()
	p.release()
	if r := s.planFor(st); r != p {
		t.Error("the kept plan was not reused")
	}
}
