package engine

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// The index-vs-scan differential: two engines hold the same seeded random
// tables, one with hash indexes on some key columns and one with none, and
// every random 1-3-frame equi-join SELECT must return identical result
// sets on both — row order included — before and after each kind of
// mutation an index must survive.

var (
	diffTables = []string{"t1", "t2", "t3"}
	diffCols   = []string{"a", "f", "s"} // int, float, varchar key columns
	diffInts   = []string{"0", "1", "2", "3", "null"}
	diffFloats = []string{"0.0", "1.0", "1.5", "-0.0", "2", "null"}
	diffStrs   = []string{"'1'", "'a'", "'a '", "'b'", "'2.0'", "''", "null"}
)

// diffPair is the same database on an indexed and an unindexed engine.
type diffPair struct {
	t       *testing.T
	idx     *Session
	scan    *Session
	indexed []string // "table.col" carrying an index on the idx side
	nextID  int
	h       hash.Hash // every dump of the scan side
}

func newDiffPair(t *testing.T, r *rand.Rand) *diffPair {
	p := &diffPair{t: t, h: sha256.New()}
	for _, s := range []**Session{&p.idx, &p.scan} {
		*s = New(catalog.New()).NewSession("u")
	}
	p.both("create database db\nuse db")
	for _, tbl := range diffTables {
		p.both(fmt.Sprintf("create table %s (id int null, a int null, f float null, s varchar(6) null)", tbl))
		for i := 0; i < 4+r.Intn(9); i++ {
			p.both(p.insertSQL(r, tbl))
		}
		for _, col := range diffCols {
			if r.Intn(2) == 0 {
				p.indexed = append(p.indexed, tbl+"."+col)
				mustExec(t, p.idx, fmt.Sprintf("create index %s_%s on %s (%s)", tbl, col, tbl, col))
			}
		}
	}
	return p
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func (p *diffPair) insertSQL(r *rand.Rand, tbl string) string {
	p.nextID++
	return fmt.Sprintf("insert %s (id, a, f, s) values (%d, %s, %s, %s)",
		tbl, p.nextID, pick(r, diffInts), pick(r, diffFloats), pick(r, diffStrs))
}

// both runs sql on both sides; a mutation may fail (a value that does not
// convert), but identically on both.
func (p *diffPair) both(sql string) {
	p.t.Helper()
	got, want := dump(p.idx.ExecScript(sql)), dump(p.scan.ExecScript(sql))
	if got != want {
		p.t.Fatalf("%s\nindexed:\n%s\nscan:\n%s", sql, got, want)
	}
	io.WriteString(p.h, want+"\x00")
}

// dump renders results exactly: schema, every value with its kind, messages
// and counts, and the error.
func dump(results []*sqltypes.ResultSet, err error) string {
	var b strings.Builder
	for _, rs := range results {
		if rs.Schema != nil {
			for _, c := range rs.Schema.Columns {
				fmt.Fprintf(&b, "%s %s|", c.Name, c.Type)
			}
		}
		b.WriteByte('\n')
		for _, row := range rs.Rows {
			for _, v := range row {
				fmt.Fprintf(&b, "%d:%s|", v.Kind(), v.AsString())
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "msgs=%q affected=%d\n", rs.Messages, rs.RowsAffected)
	}
	if err != nil {
		fmt.Fprintf(&b, "error: %v", err)
	}
	return b.String()
}

// frameCol names a random key column of alias x<i>.
func frameCol(r *rand.Rand, i int) string { return fmt.Sprintf("x%d.%s", i, pick(r, diffCols)) }

func literalFor(r *rand.Rand) string {
	switch r.Intn(3) {
	case 0:
		return pick(r, diffInts)
	case 1:
		return pick(r, diffFloats)
	}
	return pick(r, diffStrs)
}

// randomSelect builds a SELECT over n frames whose WHERE mixes equi-join
// conjuncts (the probe candidates) with literal, variable, failing and OR
// atoms, under a random projection / ORDER BY / DISTINCT / GROUP BY.
func randomSelect(r *rand.Rand, n int, withVar bool) string {
	var from []string
	for i := 0; i < n; i++ {
		from = append(from, fmt.Sprintf("%s x%d", pick(r, diffTables), i))
	}
	var conj []string
	for i := 1; i < n; i++ {
		j := r.Intn(i)
		if r.Intn(2) == 0 {
			i, j = j, i
		}
		conj = append(conj, fmt.Sprintf("%s = %s", frameCol(r, i), frameCol(r, j)))
	}
	for k := r.Intn(3); k > 0; k-- {
		i := r.Intn(n)
		switch r.Intn(8) {
		case 0, 1, 2:
			conj = append(conj, fmt.Sprintf("%s = %s", frameCol(r, i), literalFor(r)))
		case 3: // divides by zero where a = 0: the scan's error must survive
			conj = append(conj, fmt.Sprintf("10 / x%d.a > 1", i))
		case 4:
			conj = append(conj, fmt.Sprintf("(%s = %s or x%d.id > %d)", frameCol(r, i), literalFor(r), i, r.Intn(20)))
		case 5:
			conj = append(conj, fmt.Sprintf("%s is not null", frameCol(r, i)))
		default:
			if withVar {
				conj = append(conj, fmt.Sprintf("%s = @k", frameCol(r, i)))
			} else {
				conj = append(conj, fmt.Sprintf("x%d.id <> %d", i, r.Intn(20)))
			}
		}
	}
	r.Shuffle(len(conj), func(a, b int) { conj[a], conj[b] = conj[b], conj[a] })
	where := ""
	if len(conj) > 0 {
		where = " where " + strings.Join(conj, " and ")
	}
	fromSQL := " from " + strings.Join(from, ", ")

	switch r.Intn(5) {
	case 0:
		return "select *" + fromSQL + where
	case 1: // ORDER BY with ties: ties keep the join's tuple order
		return fmt.Sprintf("select x0.id, %s%s%s order by %s", frameCol(r, n-1), fromSQL, where, frameCol(r, r.Intn(n)))
	case 2:
		return fmt.Sprintf("select distinct %s, %s%s%s", frameCol(r, 0), frameCol(r, n-1), fromSQL, where)
	case 3:
		g := frameCol(r, r.Intn(n))
		return fmt.Sprintf("select %s, count(*), sum(x%d.id), min(x0.f)%s%s group by %s", g, n-1, fromSQL, where, g)
	}
	return fmt.Sprintf("select x%d.id, x0.s%s%s", n-1, fromSQL, where)
}

// probePath reports whether the index side answers sql through joinIndexed
// rather than falling back to the scan.
func probePath(t *testing.T, s *Session, sql string) bool {
	stmts, err := sqlparse.ParseBatch(sql)
	if err != nil {
		t.Fatal(err)
	}
	st := stmts[0].(*sqlparse.Select)
	p := &plan{}
	if _, err := s.resolve(p, st.From); err != nil {
		t.Fatal(err)
	}
	if err := s.planSelect(st, p); err != nil || p.steps == nil {
		return false
	}
	return s.joinIndexed(p)
}

// indexDiffHashes is the SHA-256 of each seed's full dump in
// TestIndexScanDifferential (every statement's result sets and error text
// on the scan side, then its final tables), as the tree-walking evaluator
// produced it before expressions were bound at plan time.
var indexDiffHashes = [...]string{
	"760b86ba3621b6239fca773762e547268bf357791abe390aca04f4cc1cf45cf5",
	"2faddae68ec40e2d95ea4bb552e5c428fd6d5000e9f08665be06d3380cbc28c7",
	"310d789ea29a2a76db11ddf722351396b216bc771847898604d670a48630c525",
	"681f48acaad8938c6cd10b728994620f3cfd4ecd5d48a62e0ed1400c3908a68a",
	"9130827eb02c3568fb16a037cf168645c50002032411e2bbb875c54093faf81c",
	"5364166d2a4aff8877a559ace382a43e8ec78e9dd0e7f743d8e12accc85fe747",
	"c3b268882602a0b3e186b6be262b772c7e44194e8992edc775a55aab34369c83",
	"3c94cd22dfe30a6dfebd80563ba45d5af2f721dc45737fa29949bb038195e016",
	"00aa7fcdfcc6946b3bde788d1c01d5600111a2cbd5b2e5daf92dc8ae47f5a4c4",
	"96769299ad18bb2a1662ad0cf6dc21279f4097ddd4c7fe0e3c63b81d0254f118",
	"27d1b2dcbe8696fabdb989a45116b41e8f452536548e8fafee26db9abf8372c4",
	"7a4ad1b6989e38e56608f5f184f779907f8f3d3dcdf141639f18248c1f3e532d",
}

func TestIndexScanDifferential(t *testing.T) {
	const seeds, perStep = 12, 25
	cases, probed, failed := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := newDiffPair(t, r)
		compare := func(step string) {
			t.Helper()
			for q := 0; q < perStep; q++ {
				withVar := r.Intn(5) == 0
				sql := randomSelect(r, 1+r.Intn(3), withVar)
				run := sql
				if withVar {
					run = fmt.Sprintf("create procedure q @k %s as %s\ngo\nexecute q %s\ngo\ndrop procedure q",
						pick(r, []string{"int", "float", "varchar(4)"}), sql, literalFor(r))
				} else if r.Intn(8) == 0 {
					run = fmt.Sprintf("%s\ngo\nselect * from into_t\ngo\ndrop table into_t",
						strings.Replace(sql, " from ", " into into_t from ", 1))
				} else if probePath(t, p.idx, sql) {
					probed++
				}
				got := dump(p.idx.ExecScript(run))
				want := dump(p.scan.ExecScript(run))
				if got != want {
					t.Fatalf("seed %d after %s: indexes %v\n%s\nindexed:\n%s\nscan:\n%s", seed, step, p.indexed, run, got, want)
				}
				io.WriteString(p.h, want+"\x00")
				if strings.Contains(want, "division by zero") {
					failed++
				}
				cases++
			}
		}

		compare("load")
		for i := 0; i < 3; i++ {
			p.both(p.insertSQL(r, pick(r, diffTables)))
		}
		compare("insert")
		p.both(fmt.Sprintf("update %s set %s = %s where id %% 3 = %d", pick(r, diffTables), pick(r, diffCols), literalFor(r), r.Intn(3)))
		p.both(fmt.Sprintf("update %s set a = a + 1, s = s + 'x' where id %% 2 = 0", pick(r, diffTables)))
		compare("update")
		p.both(fmt.Sprintf("delete %s where id %% 4 = %d", pick(r, diffTables), r.Intn(4)))
		compare("delete")
		p.both(fmt.Sprintf("alter table %s add extra int null", pick(r, diffTables)))
		compare("alter table add")
		p.both(fmt.Sprintf("begin tran\n%s\ndelete %s where id %% 2 = 1\nupdate %s set f = 1.5\nrollback tran",
			p.insertSQL(r, "t1"), pick(r, diffTables), pick(r, diffTables)))
		compare("rollback")
		victim := pick(r, diffTables)
		for _, s := range []*Session{p.idx, p.scan} {
			db, _ := s.eng.cat.Database("db")
			tbl, err := db.Table("", victim, "u")
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.ReplaceAll(nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			p.both(p.insertSQL(r, victim))
		}
		compare("truncate")
		io.WriteString(p.h, dumpTables(t, p.scan))
		checkSeedHash(t, "index differential", seed, p.h, indexDiffHashes[:])
	}
	if cases < 2000 {
		t.Errorf("only %d cases", cases)
	}
	// Anti-vacuity: the probe path, not the fallback, answered a real share.
	if probed < cases/6 {
		t.Errorf("index path answered %d of %d cases", probed, cases)
	}
	if failed == 0 {
		t.Error("no case failed with division by zero")
	}
	t.Logf("%d cases, %d answered by index probes, %d failed", cases, probed, failed)
}

// TestIndexProbeKeepsScanSemantics: a WHERE that can fail or call a
// function is answered by the scan, so an error on a tuple the probe would
// skip is still reported and a function runs once per tuple, as without
// the index.
func TestIndexProbeKeepsScanSemantics(t *testing.T) {
	s := New(catalog.New()).NewSession("u")
	mustExec(t, s, "create database db\nuse db\ncreate table t (id int, a int)\ninsert t values (5, 1)\ninsert t values (6, 0)\ncreate index t_id on t (id)")
	if !probePath(t, s, "select * from t where t.a > 0 and t.id = 5") {
		t.Fatal("a safe WHERE is not answered by the probe")
	}
	for _, sql := range []string{
		"select * from t where 10 / t.a > 1 and t.id = 5",
		"select * from t where t.id = 5 and t.a + 1 = 2",
		"select * from t where t.id = 5 and upper('x') = 'X'",
		"select * from t where t.id = @undeclared",
		"select * from t where t.id = nosuch",
	} {
		if probePath(t, s, sql) {
			t.Errorf("%s: answered by the probe", sql)
		}
	}
	if _, err := s.ExecScript("select * from t where 10 / t.a > 1 and t.id = 5"); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("error of the scan lost: %v", err)
	}
}
