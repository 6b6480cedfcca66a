package agent

import (
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

func TestIsECACreateTrigger(t *testing.T) {
	cases := map[string]bool{
		// Example 1 from the paper.
		"create trigger t_addStk on stock for insert event addStk as print 'x'": true,
		// Example 2.
		"create trigger t_and event addDel = delStk ^ addStk RECENT as select 1": true,
		// Native trigger: no event clause → passes through.
		"create trigger tg on stock for insert as print 'x'": false,
		// EVENT after AS belongs to the action, not the header.
		"create trigger tg on stock for insert as select event from log": false,
		"select * from stock":          false,
		"create table t (a int)":       false,
		"":                             false,
		"create trigger [unterminated": false,
	}
	for src, want := range cases {
		if got := IsECACreateTrigger(src); got != want {
			t.Errorf("IsECACreateTrigger(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestParseDropTrigger(t *testing.T) {
	parts, ok := ParseDropTrigger("drop trigger sharma.t_and")
	if !ok || strings.Join(parts, ".") != "sharma.t_and" {
		t.Errorf("got %v %v", parts, ok)
	}
	if _, ok := ParseDropTrigger("drop table t"); ok {
		t.Error("drop table matched")
	}
	if _, ok := ParseDropTrigger("drop trigger t extra"); ok {
		t.Error("trailing tokens accepted")
	}
}

func TestParseECATriggerPrimitive(t *testing.T) {
	// Figure 9 / Example 1.
	def, err := ParseECATrigger(`create trigger t_addStk on stock for insert
event addStk
as print 'trigger t_addStk on primitive event addStk occurs'
select * from stock`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(def.TriggerName, ".") != "t_addStk" || strings.Join(def.TableName, ".") != "stock" {
		t.Errorf("names: %+v", def)
	}
	if def.Operation != sqlparse.OpInsert || def.EventName != "addStk" {
		t.Errorf("op/event: %+v", def)
	}
	if def.Coupling != led.Immediate || def.Context != led.Recent || def.Priority != 0 {
		t.Errorf("defaults: %+v", def)
	}
	if !def.DefinesEvent() || def.EventExpr != "" {
		t.Errorf("kind flags: %+v", def)
	}
	if !strings.HasPrefix(def.ActionSQL, "print") || !strings.Contains(def.ActionSQL, "select * from stock") {
		t.Errorf("action: %q", def.ActionSQL)
	}
}

func TestParseECATriggerComposite(t *testing.T) {
	// Figure 12 / Example 2.
	def, err := ParseECATrigger(`create trigger t_and
event addDel = delStk ^ addStk
RECENT
as
print 'trigger t_and on composite event addDel = delStk ^ addStk'
select symbol, price from stock.inserted`)
	if err != nil {
		t.Fatal(err)
	}
	if def.EventName != "addDel" || def.EventExpr != "delStk ^ addStk" {
		t.Errorf("event: %q = %q", def.EventName, def.EventExpr)
	}
	if def.Context != led.Recent || def.Coupling != led.Immediate {
		t.Errorf("modifiers: %+v", def)
	}
	if len(def.TableName) != 0 {
		t.Errorf("composite with table: %+v", def)
	}
}

func TestParseECATriggerOnExistingEvent(t *testing.T) {
	// Figure 10.
	def, err := ParseECATrigger("create trigger t2 event addStk CUMULATIVE DETACHED 5 as select count(*) from stock")
	if err != nil {
		t.Fatal(err)
	}
	if def.DefinesEvent() {
		t.Error("reuse parsed as definition")
	}
	if def.Context != led.Cumulative || def.Coupling != led.Detached || def.Priority != 5 {
		t.Errorf("modifiers: %+v", def)
	}
}

func TestParseECATriggerModifierOrderAndSpellings(t *testing.T) {
	def, err := ParseECATrigger("create trigger t event e CHRONICLE DEFERED 3 as print 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if def.Coupling != led.Deferred || def.Context != led.Chronicle || def.Priority != 3 {
		t.Errorf("%+v", def)
	}
	def, err = ParseECATrigger("create trigger t event e 3 IMMEDIATE CONTINUOUS as print 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if def.Coupling != led.Immediate || def.Context != led.Continuous || def.Priority != 3 {
		t.Errorf("reordered: %+v", def)
	}
}

func TestParseECATriggerCompositeExprBoundary(t *testing.T) {
	// The Snoop expression ends at the first top-level modifier/AS; time
	// strings and parens are handled.
	def, err := ParseECATrigger("create trigger t event e = A*(open, trade, close) PLUS [5 sec] CUMULATIVE as print 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if def.EventExpr != "A*(open, trade, close) PLUS [5 sec]" {
		t.Errorf("expr: %q", def.EventExpr)
	}
	if def.Context != led.Cumulative {
		t.Errorf("context: %v", def.Context)
	}
}

func TestParseECATriggerAggThreshold(t *testing.T) {
	// A top-level number after a comparison operator is an aggregate
	// threshold, not the priority modifier; the number AFTER the
	// threshold is the priority again.
	cases := []struct {
		src, expr string
		priority  int
	}{
		{"create trigger t event e = AGG(COUNT, vno, hot, [5 sec]) > 10 as print 'x'",
			"AGG(COUNT, vno, hot, [5 sec]) > 10", 0},
		{"create trigger t event e = AGG(AVG, vno, hot, [5 sec], SLIDE [1 sec]) <= 2 DEFERRED 7 as print 'x'",
			"AGG(AVG, vno, hot, [5 sec], SLIDE [1 sec]) <= 2", 7},
		{"create trigger t event e = AGG(MIN, vno, hot, [5 sec]) != -3 as print 'x'",
			"AGG(MIN, vno, hot, [5 sec]) != -3", 0},
		{"create trigger t event e = WINDOW(hot, [5 sec], SLIDE [1 sec]) CHRONICLE 2 as print 'x'",
			"WINDOW(hot, [5 sec], SLIDE [1 sec])", 2},
	}
	for _, c := range cases {
		def, err := ParseECATrigger(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if def.EventExpr != c.expr {
			t.Errorf("%s:\nexpr %q, want %q", c.src, def.EventExpr, c.expr)
		}
		if def.Priority != c.priority {
			t.Errorf("%s: priority %d, want %d", c.src, def.Priority, c.priority)
		}
	}
}

func TestParseECATriggerOwnerQualified(t *testing.T) {
	def, err := ParseECATrigger("create trigger sharma.t on sharma.stock for delete event delStk as print 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(def.TriggerName, ".") != "sharma.t" || strings.Join(def.TableName, ".") != "sharma.stock" {
		t.Errorf("qualified: %+v", def)
	}
}

func TestParseECATriggerErrors(t *testing.T) {
	bad := []string{
		"create trigger t event e as",                                     // empty action
		"create trigger t event e",                                        // no AS
		"create trigger t on tbl for truncate event e as print 'x'",       // bad op
		"create trigger t on tbl event e as print 'x'",                    // missing FOR
		"create trigger t event e = as print 'x'",                         // empty expr
		"create trigger t on tbl for insert event e = a ^ b as print 'x'", // ON with composite
		"create trigger t event e WEIRD as print 'x'",                     // unknown modifier
		"create trigger t event e -1 as print 'x'",                        // bad priority
		"create trigger event e as print 'x'",                             // missing name
	}
	for _, src := range bad {
		if def, err := ParseECATrigger(src); err == nil {
			t.Errorf("ParseECATrigger(%q) succeeded: %+v", src, def)
		}
	}
}

func TestNameExpansion(t *testing.T) {
	got, err := expandName("sentineldb", "sharma", []string{"addStk"})
	if err != nil || got != "sentineldb.sharma.addStk" {
		t.Errorf("1-part: %q %v", got, err)
	}
	got, err = expandName("sentineldb", "sharma", []string{"li", "addStk"})
	if err != nil || got != "sentineldb.li.addStk" {
		t.Errorf("2-part: %q %v", got, err)
	}
	got, err = expandName("x", "y", []string{"db2", "li", "t"})
	if err != nil || got != "db2.li.t" {
		t.Errorf("3-part: %q %v", got, err)
	}
	if _, err = expandName("", "", []string{"t"}); err == nil {
		t.Error("expansion without context succeeded")
	}
	if _, err = expandName("d", "u", []string{"a", "b", "c", "d"}); err == nil {
		t.Error("4-part accepted")
	}
	// Injectivity across (db, user, object) triples.
	seen := map[string]bool{}
	for _, db := range []string{"d1", "d2"} {
		for _, u := range []string{"u1", "u2"} {
			for _, o := range []string{"o1", "o2"} {
				n, err := expandName(db, u, []string{o})
				if err != nil || seen[n] {
					t.Errorf("collision or error for %s/%s/%s: %q %v", db, u, o, n, err)
				}
				seen[n] = true
			}
		}
	}
}

func TestEventNameExpansion(t *testing.T) {
	got, err := expandEventName("db", "u", "ev")
	if err != nil || got != "db.u.ev" {
		t.Errorf("%q %v", got, err)
	}
	got, err = expandEventName("db", "u", "other.li.ev")
	if err != nil || got != "other.li.ev" {
		t.Errorf("%q %v", got, err)
	}
	if _, err := expandEventName("db", "u", "a.b"); err == nil {
		t.Error("2-part event name accepted")
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	msg := notifyPrefix("db.u.ev", "db.u.stock", "insert") + "42"
	ev, tbl, op, vno, err := parseNotification(msg)
	if err != nil || ev != "db.u.ev" || tbl != "db.u.stock" || op != "insert" || vno != 42 {
		t.Errorf("round trip: %v %v %v %v %v", ev, tbl, op, vno, err)
	}
	for _, bad := range []string{"", "ECA1|a|b", "NOPE|a|b|c|1", "ECA1|a|b|c|x2"} {
		if _, _, _, _, err := parseNotification(bad); err == nil {
			t.Errorf("parseNotification(%q) succeeded", bad)
		}
	}
}

func TestRewriteAction(t *testing.T) {
	action := "select symbol, price from stock.inserted where price > 10"
	out, shadows, err := rewriteAction("sentineldb", "sharma", action)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sentineldb.sharma.stock_inserted_tmp") {
		t.Errorf("rewrite: %q", out)
	}
	if len(shadows) != 1 || shadows[0].Table != "sentineldb.sharma.stock" || shadows[0].Op != "inserted" {
		t.Errorf("shadows: %+v", shadows)
	}
	// Qualified reference and both pseudo kinds; duplicates deduped.
	action = "select * from li.stock.deleted, stock.inserted, stock.inserted"
	out, shadows, err = rewriteAction("db", "u", action)
	if err != nil {
		t.Fatal(err)
	}
	if len(shadows) != 2 {
		t.Errorf("shadows: %+v", shadows)
	}
	if !strings.Contains(out, "db.li.stock_deleted_tmp") || !strings.Contains(out, "db.u.stock_inserted_tmp") {
		t.Errorf("rewrite: %q", out)
	}
	// No references → action unchanged.
	out, shadows, err = rewriteAction("db", "u", "print 'hello'")
	if err != nil || out != "print 'hello'" || shadows != nil {
		t.Errorf("no-op rewrite: %q %v %v", out, shadows, err)
	}
}

func TestFigureSchemas(t *testing.T) {
	for _, tab := range []string{TabPrimitiveEvent, TabCompositeEvent, TabEcaTrigger, TabContext} {
		out, err := FigureSchema(tab)
		if err != nil || !strings.Contains(out, "Column_name") {
			t.Errorf("FigureSchema(%s): %v\n%s", tab, err, out)
		}
	}
	if _, err := FigureSchema("nope"); err == nil {
		t.Error("unknown figure schema accepted")
	}
	// Figure 5 spot checks.
	out, _ := FigureSchema(TabPrimitiveEvent)
	for _, col := range []string{"dbName", "userName", "eventName", "tableName", "operation", "timeStamp", "vNo"} {
		if !strings.Contains(out, col) {
			t.Errorf("Figure 5 missing %s", col)
		}
	}
}

func TestGenPrimitiveEventCode(t *testing.T) {
	batches := genPrimitiveEvent("sentineldb.sharma.addStk", "sentineldb.sharma.stock", sqlparse.OpInsert, "127.0.0.1", 10006)
	if len(batches) != 2 {
		t.Fatalf("got %d batches", len(batches))
	}
	joined := strings.Join(batches, "\n---\n")
	// Structural equivalence with Figure 11.
	for _, want := range []string{
		"select * into sentineldb.sharma.stock_inserted from stock where 1 = 2",
		"alter table sentineldb.sharma.stock_inserted add vNo int null",
		"create trigger sentineldb.sharma.addStk__trig",
		"for insert",
		"update SysPrimitiveEvent set vNo = vNo + 1 where eventName = 'sentineldb.sharma.addStk'",
		"insert sentineldb.sharma.stock_inserted select t.*, spe.vNo from inserted t",
		"syb_sendmsg('127.0.0.1', 10006,",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("generated code missing %q in:\n%s", want, joined)
		}
	}
	// Update events record both pseudo-tables.
	batches = genPrimitiveEvent("d.u.ev", "d.u.t", sqlparse.OpUpdate, "h", 1)
	joined = strings.Join(batches, "\n")
	if !strings.Contains(joined, "d.u.t_inserted") || !strings.Contains(joined, "d.u.t_deleted") {
		t.Errorf("update shadows: %s", joined)
	}
}

func TestGenActionProcCode(t *testing.T) {
	shadows := []ShadowRef{{Table: "sentineldb.sharma.stock", Op: "inserted"}}
	proc := genActionProc("sentineldb.sharma.t_and__Proc", "RECENT",
		"select symbol, price from sentineldb.sharma.stock_inserted_tmp", shadows)
	// Structural equivalence with Figure 14.
	for _, want := range []string{
		"create procedure sentineldb.sharma.t_and__Proc as",
		"delete sentineldb.sharma.stock_inserted_tmp",
		"insert sentineldb.sharma.stock_inserted_tmp",
		"c.context = 'RECENT'",
		"c.tableName = 'sentineldb.sharma.stock_inserted'",
		"s.vNo = c.vNo",
	} {
		if !strings.Contains(proc, want) {
			t.Errorf("proc missing %q in:\n%s", want, proc)
		}
	}
	tmp := genTmpTables(shadows)
	if len(tmp) != 2 || !strings.Contains(tmp[0], "stock_inserted_tmp") ||
		tmp[1] != "create index stock_inserted_vNo on sentineldb.sharma.stock_inserted (vNo)" {
		t.Errorf("tmp tables: %v", tmp)
	}
}
