package engine

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// The plan-cache differential: one seeded stream of batches runs through a
// warm Session.ExecBatch, where repeated shapes are bound into cached
// statements and run on kept statement plans, and through
// sqlparse.ParseBatch + ExecStmt on an identically seeded catalog, where
// every batch is parsed and planned afresh. Every result set, every error
// text and a final dump of every table must be identical.

// planLits are the number and string literals a slot can take: negatives
// that fold, ints and floats in one slot, escaped quotes, and numbers the
// parser rejects.
var (
	planNums = []string{"0", "1", "7", "-3", "- 2", "-(4)", "- -5", "2.5", "-0.5", "1e2", "-2.5e1",
		"9223372036854775807", "99999999999999999999", "1e999"}
	planStrs = []string{"''", "'a'", "'it''s'", "'x y'", "'''q'''", "'7'", "'-1'", "'IBM'"}
)

func planNum(r *rand.Rand) string { return pick(r, planNums) }
func planStr(r *rand.Rand) string { return pick(r, planStrs) }

// planValue is a literal of either kind, or NULL, which changes the shape.
func planValue(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0, 1:
		return planNum(r)
	case 2, 3:
		return planStr(r)
	}
	return "null"
}

// planBatch draws one batch. Most templates have a fixed shape, so their
// literals change while the shape repeats; the IN list's length varies, so
// a stream also has many shapes and the cache fills and empties. DDL
// between repetitions changes what the statement plans were built on.
func planBatch(r *rand.Rand, id *int) string {
	*id++
	switch r.Intn(19) {
	case 0, 1:
		return fmt.Sprintf("insert t1 (id, a, f, s) values (%d, %s, %s, %s)", *id, planNum(r), planNum(r), planStr(r))
	case 2:
		return fmt.Sprintf("insert t1 (id, a, f, s) values (%d, %s, %s, %s)", *id, planValue(r), planValue(r), planValue(r))
	case 3:
		return fmt.Sprintf("insert t2 values (%d, %s, %s)\ninsert t2 values (%d, %s, %s)",
			*id, planNum(r), planStr(r), *id+1000, planNum(r), planStr(r))
	case 4:
		return fmt.Sprintf("select id, a, f, s from t1 where a > %s or s = %s", planNum(r), planStr(r))
	case 5:
		return fmt.Sprintf("select -%s, - -%s, %s + %s, %s * -%s", planNum(r), planNum(r), planNum(r), planNum(r), planNum(r), planNum(r))
	case 6:
		return fmt.Sprintf("update t1 set f = %s, s = %s where id %% %d = %d", planNum(r), planStr(r), 2+r.Intn(3), r.Intn(2))
	case 7:
		return fmt.Sprintf("delete t1 where a = %s", planNum(r))
	case 8: // fails mid-batch when the divisor is 0
		return fmt.Sprintf("insert t2 values (%d, %s, 'mid')\nselect 10 / %s\ninsert t2 values (%d, 1, 'after')", *id, planNum(r), planNum(r), *id+2000)
	case 9:
		return fmt.Sprintf("print %s + %s", planValue(r), planValue(r))
	case 10:
		return fmt.Sprintf("execute p %s, %s", planNum(r), planStr(r))
	case 11:
		return fmt.Sprintf("insert t4 values (%d, %s)", *id, planValue(r))
	case 12:
		return fmt.Sprintf("select id, a from t4 where a <> %s order by id", planValue(r))
	case 13: // drop and re-create, possibly with another column type
		return fmt.Sprintf("drop table t4\ncreate table t4 (id int null, a %s null)", pick(r, []string{"int", "float", "varchar(8)"}))
	case 14:
		return fmt.Sprintf("begin tran\ninsert t2 values (%d, %s, %s)\nupdate t1 set a = a + %s\n%s tran",
			*id, planNum(r), planStr(r), planNum(r), pick(r, []string{"commit", "rollback"}))
	case 15: // a second index on one column, or of one name, fails
		col := pick(r, []string{"id", "a", "s"})
		return fmt.Sprintf("create index t%s_%s on %s (%s)", col, pick(r, []string{"1", "2"}), pick(r, []string{"t1", "t2"}), col)
	case 16: // t4's inserts fail until case 13 re-creates it
		return fmt.Sprintf("alter table t4 add c%d %s null", *id, pick(r, []string{"int", "varchar(4)"}))
	case 17:
		return fmt.Sprintf("select t1.id, t2.s, t1.a from t1, t2 where t1.id = t2.id and t2.a > %s order by t1.id", planNum(r))
	}
	items := make([]string, 1+r.Intn(40))
	for i := range items {
		items[i] = planValue(r)
	}
	return fmt.Sprintf("select id from t1 where a in (%s) or s in (%s)", strings.Join(items, ", "), planStr(r))
}

// execParsed runs one batch the way ExecBatch does, with a fresh parse.
func execParsed(s *Session, src string) ([]*sqltypes.ResultSet, error) {
	stmts, err := sqlparse.ParseBatch(src)
	if err != nil {
		return nil, err
	}
	return s.execStmts(stmts)
}

// dumpTables renders every table of db, in name order, with each value's
// kind.
func dumpTables(t *testing.T, s *Session) string {
	db, err := s.database("db")
	if err != nil {
		t.Fatal(err)
	}
	names := db.TableNames()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		owner, name, _ := strings.Cut(n, ".")
		tbl, err := db.Table(owner, name, "u")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", n, tbl.Schema().Columns)
		for _, row := range tbl.Rows() {
			for _, v := range row {
				fmt.Fprintf(&b, "%d:%s|", v.Kind(), v.AsString())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// planDiffHashes is the SHA-256 of each seed's full dump in
// TestPlanCacheDifferential (every batch's result sets and error text,
// then the final tables), as the tree-walking evaluator produced it before
// expressions were bound at plan time. Any other evaluator must reproduce
// every one.
var planDiffHashes = [...]string{
	"4d0e0fa7252dd801dc683abdb79f05ebc4d8ce600ac74e5f8ddcc9917caf608a",
	"7b1a6ac128ee4f2774a747a045afa11cba390553cefb201be060c7c4ba1c5f64",
	"6e8701b9bf7b54022d4ded132ffe570512a5e596e866e888966a6f9ba887f99b",
	"aaf1a6519e95d746b69413ab5a89b06b600d1108eac1fc1d541a3d355b64deb6",
	"1e9c097d2a180b523b246a57bb90b7c651bff2788b93330a190bd550ae1a1156",
	"ab1bbda2ce47a751ed004283928a0e6e335b0d49fd00f0f3db7e6cd26c37c173",
	"4c42fdaf7f92530323bb47ad4a56fd1eb6026403f947b6ebbbeb84bb1fca0060",
	"a1b35d8b9b2bc8ce8f7db52c75d2ccd999269a8f2112b442418676c01b645126",
	"4cd298fb15675886c91396b916a896c871a42f845d7f7e215c71eba82eda9cf0",
	"c2804874ecdb5ebf697b11461ea8884411c9ca4bd91f6058bf43cfe9c29385ee",
}

// checkSeedHash fails unless h, the dump of one seed, is want[seed-1].
func checkSeedHash(t *testing.T, name string, seed int64, h hash.Hash, want []string) {
	t.Helper()
	got := fmt.Sprintf("%x", h.Sum(nil))
	if int(seed) > len(want) || got != want[seed-1] {
		t.Errorf("%s seed %d: dump hash %s, want the recorded one", name, seed, got)
	}
}

func TestPlanCacheDifferential(t *testing.T) {
	const seeds, perSeed = 10, 600
	setup := "create database db\nuse db\n" +
		"create table t1 (id int null, a int null, f float null, s varchar(12) null)\n" +
		"create table t2 (id int, a float null, s varchar(12) null)\n" +
		"create table t4 (id int null, a int null)\n" +
		"create procedure p @k int, @s varchar(12) as\nselect id, s from t1 where a = @k or s = @s\nprint @s"
	batches, hits, failed := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		cached := New(catalog.New()).NewSession("u")
		fresh := New(catalog.New()).NewSession("u")
		h := sha256.New()
		mustExec(t, cached, setup)
		mustExec(t, fresh, setup)
		id := 0
		for i := 0; i < perSeed; i++ {
			src := planBatch(r, &id)
			if toks, err := sqllex.Tokenize(src); err == nil && cached.templates[string(sqlparse.AppendShape(nil, toks))] != nil {
				hits++
			}
			got := dump(cached.ExecBatch(src))
			fresh.forget() // procedure bodies, too, are planned afresh
			want := dump(execParsed(fresh, src))
			if got != want {
				t.Fatalf("seed %d, batch %d:\n%s\ncached:\n%s\nparsed:\n%s", seed, i, src, got, want)
			}
			io.WriteString(h, want+"\x00")
			if strings.Contains(want, "error: ") {
				failed++
			}
			batches++
		}
		if got, want := dumpTables(t, cached), dumpTables(t, fresh); got != want {
			t.Fatalf("seed %d: tables differ\ncached:\n%s\nparsed:\n%s", seed, got, want)
		} else {
			io.WriteString(h, want)
		}
		checkSeedHash(t, "plan differential", seed, h, planDiffHashes[:])
		if len(cached.templates) > planCap {
			t.Fatalf("seed %d: %d cached shapes, cap %d", seed, len(cached.templates), planCap)
		}
	}
	// Anti-vacuity: most batches were bound into a cached plan, and the
	// error paths ran.
	if hits < batches/2 || failed < batches/20 {
		t.Errorf("%d batches, %d cache hits, %d failed", batches, hits, failed)
	}
	t.Logf("%d batches, %d cache hits, %d failed", batches, hits, failed)
}

// TestPlanCacheBindsLiterals: a repeated shape is not parsed again, yet
// every run sees its own literals, folded negatives included, and a bad
// number fails with the parser's error.
func TestPlanCacheBindsLiterals(t *testing.T) {
	s, _ := newTestSession(t)
	for _, tc := range []struct{ src, want string }{
		{"select -1, 'a''b', 2.5", "-1|a'b|2.5|"},
		{"select -7, 'c', -3", "-7|c|-3|"},
		{"select - -1, '', 1e2", "1||100|"},
		{"select -2.5, 'x', 4", "-2.5|x|4|"},
	} {
		rs := mustExec(t, s, tc.src)
		var got strings.Builder
		for _, v := range rs[0].Rows[0] {
			got.WriteString(v.AsString() + "|")
		}
		if got.String() != tc.want {
			t.Errorf("%s: got %s, want %s", tc.src, got.String(), tc.want)
		}
	}
	_, err := s.ExecBatch("select -1, 'a', 99999999999999999999")
	_, want := sqlparse.ParseBatch("select -1, 'a', 99999999999999999999")
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("bad number on a hit: %v, parser says %v", err, want)
	}
	// use db, and three shapes of select: the first and last runs share one.
	if n := len(s.templates); n != 4 {
		t.Errorf("%d cached shapes, want 4", n)
	}
}

// TestPlanCacheSkipsDDL: DDL keeps its AST or text in the catalog, so a
// batch with DDL is parsed every time and never cached.
func TestPlanCacheSkipsDDL(t *testing.T) {
	s, _ := newTestSession(t)
	before := len(s.templates)
	mustExec(t, s, "create table t (a varchar(10) null)\ninsert t values ('x')")
	mustExec(t, s, "create procedure p as print 'p'")
	mustExec(t, s, "drop procedure p")
	if len(s.templates) != before {
		t.Errorf("DDL batches cached: %d shapes, was %d", len(s.templates), before)
	}
	for i := 0; i < planCap+10; i++ {
		mustExec(t, s, "select 1"+strings.Repeat(", 1", i))
	}
	if n := len(s.templates); n == 0 || n > planCap {
		t.Errorf("%d cached shapes, cap %d", n, planCap)
	}
}
