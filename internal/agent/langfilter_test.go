package agent

import (
	"fmt"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/sqllex"
)

// hardBatches are batches whose classification a careless lexical scan gets
// wrong. The Language Filter takes all its decisions from one tokenize of
// the batch; want is what classifyBatch must read from it.
var hardBatches = []struct {
	name string
	sql  string
	want batchClassView
}{
	{"use in string literal", "select 'use otherdb' from stock", batchClassView{}},
	{"use in line comment", "select 1 -- use otherdb\nselect 2", batchClassView{}},
	{"use in block comment", "/* use otherdb */ select 1", batchClassView{}},
	{"qualified x.use", "select s.use otherdb from stock s", batchClassView{}},
	{"commit_log identifier", "insert commit_log values (1)", batchClassView{}},
	{"commit in string literal", "print 'commit'", batchClassView{}},
	{"commit", "begin tran insert stock values ('A', 1) commit", batchClassView{commits: true}},
	{"use alone", "use otherdb", batchClassView{lastUse: "otherdb"}},
	{"use then ECA create",
		"use otherdb\ncreate trigger t on stock for insert event e as print 'x'",
		batchClassView{useDB: "otherdb", create: true, lastUse: "otherdb"}},
	{"use then drop", "use otherdb drop trigger sharma.t1",
		batchClassView{useDB: "otherdb", drop: "sharma.t1", lastUse: "otherdb"}},
	{"ECA create", "create trigger t event e = a ^ b as select 1", batchClassView{create: true}},
	{"native create: EVENT after AS", "create trigger tg on stock for insert as select event from log",
		batchClassView{}},
	{"drop trigger", "drop trigger [t1]", batchClassView{drop: "t1"}},
	{"drop trigger with trailing tokens", "drop trigger t1 extra", batchClassView{}},
	{"drop table", "drop table t1", batchClassView{}},
	{"unterminated string", "use otherdb select 'oops", batchClassView{}},
	{"unterminated string after ECA create", "create trigger t event e as print 'x", batchClassView{}},
	{"several USEs, last wins", "use a\nselect 1\nuse b\ninsert t values (1)",
		batchClassView{useDB: "a", lastUse: "b"}},
	{"USE of a dotted name takes its first part", "use a\nuse c.d", batchClassView{useDB: "a", lastUse: "c"}},
	{"empty", "", batchClassView{}},
}

// batchClassView is the comparable part of a batchClass.
type batchClassView struct {
	useDB   string
	create  bool
	drop    string
	lastUse string
	commits bool
}

func viewOf(c batchClass) batchClassView {
	return batchClassView{useDB: c.useDB, create: c.create, drop: strings.Join(c.drop, "."),
		lastUse: c.lastUse, commits: c.commits}
}

func TestClassifyHardBatches(t *testing.T) {
	for _, b := range hardBatches {
		if got := viewOf(classifyBatch(new([]sqllex.Token), b.sql)); got != b.want {
			t.Errorf("%s: classifyBatch(%q) = %+v, want %+v", b.name, b.sql, got, b.want)
		}
	}
}

// TestLeadingUseDropNativeVsECA: after a leading USE, a DROP TRIGGER is the
// agent's only when the trigger is an ECA trigger of the target database;
// a native one passes through, USE included.
func TestLeadingUseDropNativeVsECA(t *testing.T) {
	r := newRig(t)
	seed := r.eng.NewSession("sharma")
	if _, err := seed.ExecScript("create database otherdb\nuse otherdb\ncreate table stock (symbol varchar(10), price float null)"); err != nil {
		t.Fatal(err)
	}
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("use otherdb\ncreate trigger t_eca on stock for insert event addStk as print 'eca'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("use otherdb\ncreate trigger t_native on stock for delete as print 'native'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("use sentineldb"); err != nil {
		t.Fatal(err)
	}
	if !r.agent.IsECATrigger("otherdb", "sharma", []string{"t_eca"}) {
		t.Fatal("t_eca not registered as an ECA trigger")
	}

	if _, err := cs.Exec("use otherdb\ndrop trigger t_native"); err != nil {
		t.Fatalf("native drop after USE: %v", err)
	}
	if got := cs.Database(); got != "otherdb" {
		t.Errorf("after native drop: Database() = %q, want otherdb", got)
	}
	if _, err := cs.Exec("use sentineldb\ndrop trigger t_eca"); err == nil {
		t.Error("ECA drop classified against the session's database, not the USE target")
	}
	results, err := cs.Exec("use otherdb\ndrop trigger t_eca")
	if err != nil {
		t.Fatalf("ECA drop after USE: %v", err)
	}
	if len(results) == 0 || len(results[len(results)-1].Messages) == 0 {
		t.Errorf("ECA drop returned no agent messages: %+v", results)
	}
	if r.agent.IsECATrigger("otherdb", "sharma", []string{"t_eca"}) {
		t.Error("t_eca still registered after its drop")
	}
}

// TestFailedBatchRereadsDatabase: a batch that fails after its USE ran has
// still moved the server session, and the agent must follow it there.
func TestFailedBatchRereadsDatabase(t *testing.T) {
	r := newRig(t)
	seed := r.eng.NewSession("sharma")
	if _, err := seed.ExecScript("create database otherdb"); err != nil {
		t.Fatal(err)
	}
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("use otherdb\ninsert nosuch values (1)"); err == nil {
		t.Fatal("insert into a missing table succeeded")
	}
	rs, err := cs.Query("select db_name()")
	if err != nil {
		t.Fatal(err)
	}
	if server := rs.Rows[0][0].Str(); server != "otherdb" {
		t.Fatalf("server session in %q, want otherdb", server)
	}
	if got := cs.Database(); got != "otherdb" {
		t.Errorf("Database() = %q after the failed batch, server is in otherdb", got)
	}

	// A batch that fails before its USE leaves both where they were.
	if _, err := cs.Exec("insert nosuch values (1)\nuse sentineldb"); err == nil {
		t.Fatal("insert into a missing table succeeded")
	}
	if got := cs.Database(); got != "otherdb" {
		t.Errorf("Database() = %q after a batch that failed before its USE, want otherdb", got)
	}
}

// TestAllocsPassThroughBatch is the allocation budget of one warmed
// in-process pass-through statement on a 64-row table: the Language
// Filter's single tokenize plus the engine's execution, which reads the
// table's stored rows instead of copying them and binds a repeated
// statement's literals into its cached plan instead of parsing it. The
// budgets sit a few allocations above the measured 22, 15 and 9; a copy
// per row would add 64, a parse per statement 10 to 20.
func TestAllocsPassThroughBatch(t *testing.T) {
	r := newRig(t)
	cs := r.session(t, "sharma", "sentineldb")
	for i := 0; i < 64; i++ {
		if _, err := cs.Exec(fmt.Sprintf("insert stock values ('Q%02d', 10)", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		sql  string
		want float64
	}{
		{"select price from stock where symbol = 'Q01'", 26},
		{"update stock set price = 11 where symbol = 'Q02'", 19},
		{"delete stock where symbol = 'nosuch'", 13},
	} {
		if _, err := cs.Exec(tc.sql); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, err := cs.Exec(tc.sql); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.want {
			t.Errorf("%s: %.1f allocs/op over 64 rows, want <= %.0f", tc.sql, avg, tc.want)
		}
	}
}
