package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

const (
	benchDB   = "benchdb"
	benchUser = "bench"
)

type loopMode int

const (
	// closedLoop: a connection sends its next DML only after every action
	// the previous one must cause has been reported.
	closedLoop loopMode = iota
	// windowLoop: a connection keeps at most satWindow DMLs whose actions
	// are still unreported.
	windowLoop
	// openLoop: DMLs are due on a seeded Poisson schedule and are sent then,
	// whatever the system is doing; latency is timed from the due time.
	openLoop
)

const satWindow = 64

type stmtClass uint8

const (
	clsSelect stmtClass = iota
	clsInsert
	clsUpdate
	clsDelete
	numClasses
)

var classNames = [numClasses]string{"select", "insert", "update", "delete"}

// op is one generated client statement with what it does to its table, so
// the row-count and price-sum checks can be computed from the generator
// alone.
type op struct {
	sql   string
	class stmtClass
	table string
	dRows int
	dSum  float64
}

// rule is one ECA trigger in the three forms of the paper's Figures 9, 10
// and 12. A rule with table set defines its primitive event; one with expr
// set defines a composite event; otherwise it attaches to an existing event.
type rule struct {
	name     string
	event    string
	table    string // primitive form
	op       string // primitive form: insert | delete
	expr     string // composite form, in Snoop
	context  string // "" is the default (RECENT)
	priority int
	action   string
}

func (r rule) sql() string {
	s := "create trigger " + r.name
	if r.table != "" {
		s += " on " + r.table + " for " + r.op
	}
	s += " event " + r.event
	if r.expr != "" {
		s += " = " + r.expr
	}
	if r.context != "" {
		s += " " + r.context
	}
	if r.priority > 0 {
		s += " " + strconv.Itoa(r.priority)
	}
	return s + " as " + r.action
}

// gen holds a connection's seeded generator state.
type gen struct {
	r      *rand.Rand
	syms   []string
	quotes []float64 // passthrough: current price of each fixed row
	temp   float64   // passthrough: price of the open insert/delete pair
}

func newGen(seed int64, conn int) *gen {
	r := rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 1))
	g := &gen{r: r, syms: make([]string, 512)}
	for i := range g.syms {
		n := 3 + r.Intn(4)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('A' + r.Intn(26))
		}
		g.syms[i] = string(b)
	}
	return g
}

func (g *gen) sym() string { return g.syms[g.r.Intn(len(g.syms))] }

// price is a multiple of 0.25 so that sums of any length are exact in
// float64 and the price-sum checks compare with ==.
func (g *gen) price() float64 { return float64(g.r.Intn(4000)+1) * 0.25 }

func fmtPrice(p float64) string { return strconv.FormatFloat(p, 'f', -1, 64) }

func insertOp(table, sym string, p float64) op {
	return op{
		sql:   "insert " + table + " values ('" + sym + "', " + fmtPrice(p) + ")",
		class: clsInsert, table: table, dRows: 1, dSum: p,
	}
}

// workload is one set of inputs. gen and fires are functions of (conn,
// idx) alone apart from the seeded values, so which DML raises the n-th
// occurrence of an event is known before anything runs: that is what lets
// the collector map an action report back to the DML that caused it.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also says why it
	// exists; README.md has a paragraph on each.
	name string
	// conns is the number of load-generator goroutines, each with one
	// gateway connection. Never above 2: the reference host has 2 cores.
	conns int
	mode  loopMode
	// warmup is the number of untimed DMLs per connection that end set-up.
	warmup int
	// rate is the number of timed DMLs, over all connections, per second of
	// --seconds. For closed and windowed loops it fixes the operation count
	// (so tables follow the same trajectory on every commit) at about 85 %
	// of what the 2-core reference host completes, leaving the time limit
	// as a guard for slower hosts. For the open loop it is the constant
	// Poisson arrival rate, 40-60 % of saturation's capacity on that host.
	rate    int
	durable bool
	tables  []string
	rows    func(g *gen) []op // initial rows, inserted during set-up
	rules   []rule
	gen     func(g *gen, conn, idx int) op
	// fires names the primitive event DML idx of connection conn raises and
	// the rules (bits into rules) it must cause, or "" when it fires none.
	fires func(conn, idx int) (event string, mask uint16)
	// checks are the workload's own output checks beyond the generic ones.
	checks func(t *tally) []check
}

// check is one SQL output check: the scalar the query returns must equal
// want exactly.
type check struct {
	what string
	sql  string
	want float64
}

// tally accumulates what the generator did to each table.
type tally struct {
	rows map[string]int
	sum  map[string]float64
	// fired counts DMLs per primitive event, timed and warm-up together.
	fired map[string]int
}

func newTally() *tally {
	return &tally{rows: map[string]int{}, sum: map[string]float64{}, fired: map[string]int{}}
}

func (t *tally) add(o op) {
	if o.table != "" {
		t.rows[o.table] += o.dRows
		t.sum[o.table] += o.dSum
	}
}

func shadowTable(table, kind string) string {
	return benchDB + "." + benchUser + "." + table + "_" + kind
}

func internalName(obj string) string { return benchDB + "." + benchUser + "." + obj }

const stockTable = "create table stock (symbol varchar(10), price float null)"

func stockInsert(g *gen, conn, idx int) op { return insertOp("stock", g.sym(), g.price()) }

func alwaysAddStk(conn, idx int) (string, uint16) { return "addStk", 1 }

func pairTable(prefix string, conn int) string { return prefix + strconv.Itoa(conn) }

var workloads = []workload{
	{
		name:  "rule_loop",
		conns: 1, mode: closedLoop, warmup: 2000, rate: 2500,
		tables: []string{stockTable},
		rules:  []rule{{name: "t_add", event: "addStk", table: "stock", op: "insert", action: "print 'added'"}},
		gen:    stockInsert,
		fires:  alwaysAddStk,
	},
	{
		name:  "passthrough",
		conns: 1, mode: closedLoop, warmup: 2000, rate: 9000,
		tables: func() []string {
			t := []string{"create table quotes (symbol varchar(10), price float null)"}
			for k := 0; k < 4; k++ {
				t = append(t, fmt.Sprintf("create table r%d (symbol varchar(10), price float null)", k))
			}
			return t
		}(),
		rows: func(g *gen) []op {
			g.quotes = make([]float64, 64)
			out := make([]op, 64)
			for i := range out {
				g.quotes[i] = g.price()
				out[i] = insertOp("quotes", fmt.Sprintf("Q%02d", i), g.quotes[i])
			}
			return out
		},
		rules: func() []rule {
			var rs []rule
			for k := 0; k < 4; k++ {
				t := fmt.Sprintf("r%d", k)
				rs = append(rs,
					rule{name: "ins_" + t, event: "radd" + strconv.Itoa(k), table: t, op: "insert", action: "print 'ins'"},
					rule{name: "del_" + t, event: "rdel" + strconv.Itoa(k), table: t, op: "delete", action: "print 'del'"})
			}
			return rs
		}(),
		gen: func(g *gen, conn, idx int) op {
			pos := idx % 33
			if pos == 32 {
				return insertOp("r0", g.sym(), g.price())
			}
			q := g.r.Intn(len(g.quotes))
			key := fmt.Sprintf("Q%02d", q)
			switch pos % 4 {
			case 0:
				return op{sql: "select price from quotes where symbol = '" + key + "'", class: clsSelect}
			case 1:
				p := g.price()
				d := p - g.quotes[q]
				g.quotes[q] = p
				return op{sql: "update quotes set price = " + fmtPrice(p) + " where symbol = '" + key + "'",
					class: clsUpdate, table: "quotes", dSum: d}
			case 2:
				g.temp = g.price()
				return insertOp("quotes", "T"+strconv.Itoa(idx), g.temp)
			default:
				return op{sql: "delete quotes where symbol = 'T" + strconv.Itoa(idx-1) + "'",
					class: clsDelete, table: "quotes", dRows: -1, dSum: -g.temp}
			}
		},
		fires: func(conn, idx int) (string, uint16) {
			if idx%33 == 32 {
				return "radd0", 1
			}
			return "", 0
		},
		checks: func(t *tally) []check {
			return []check{{"price sum of quotes", "select sum(price) from quotes", t.sum["quotes"]}}
		},
	},
	{
		name:  "context_fanout",
		conns: 1, mode: closedLoop, warmup: 300, rate: 110,
		tables: []string{stockTable, "create table audit (symbol varchar(10), price float null, slot int null)"},
		rules: func() []rule {
			var rs []rule
			for k := 1; k <= 4; k++ {
				r := rule{name: "f" + strconv.Itoa(k), event: "addStk", priority: 5 - k,
					action: "insert audit select symbol, price, " + strconv.Itoa(k) + " from stock.inserted"}
				if k == 1 {
					r.table, r.op = "stock", "insert"
				}
				rs = append(rs, r)
			}
			return rs
		}(),
		gen:   stockInsert,
		fires: func(conn, idx int) (string, uint16) { return "addStk", 0xf },
		checks: func(t *tally) []check {
			return []check{
				{"audit rows = 4 per insert", "select count(*) from audit", float64(4 * t.rows["stock"])},
				{"audit price sum = 4 x inserted price sum", "select sum(price) from audit", 4 * t.sum["stock"]},
			}
		},
	},
	{
		name:  "reaction_open",
		conns: 2, mode: openLoop, warmup: 1000, rate: 1000,
		tables: []string{
			"create table pos0 (symbol varchar(10), price float null)",
			"create table pos1 (symbol varchar(10), price float null)",
		},
		rules: func() []rule {
			var rs []rule
			for c := 0; c < 2; c++ {
				n := strconv.Itoa(c)
				rs = append(rs,
					rule{name: "a" + n, event: "add" + n, table: "pos" + n, op: "insert", action: "print 'add'"},
					rule{name: "d" + n, event: "del" + n, table: "pos" + n, op: "delete", action: "print 'del'"},
					rule{name: "o" + n, event: "any" + n, expr: "add" + n + " | del" + n, action: "print 'any'"},
					rule{name: "b" + n, event: "both" + n, expr: "add" + n + " ^ del" + n, context: "CHRONICLE", action: "print 'both'"})
			}
			return rs
		}(),
		gen: func(g *gen, conn, idx int) op {
			t := pairTable("pos", conn)
			key := "K" + strconv.Itoa(idx/2)
			if idx%2 == 0 {
				g.temp = g.price()
				return insertOp(t, key, g.temp)
			}
			return op{sql: "delete " + t + " where symbol = '" + key + "'",
				class: clsDelete, table: t, dRows: -1, dSum: -g.temp}
		},
		fires: func(conn, idx int) (string, uint16) {
			base := uint(conn * 4)
			if idx%2 == 0 {
				return pairTable("add", conn), 0b0101 << base // a, o
			}
			return pairTable("del", conn), 0b1110 << base // d, o, b
		},
	},
	{
		name:  "saturation",
		conns: 2, mode: windowLoop, warmup: 1000, rate: 4800,
		tables: []string{
			"create table s0 (symbol varchar(10), price float null)",
			"create table s1 (symbol varchar(10), price float null)",
		},
		rules: []rule{
			{name: "p0", event: "sadd0", table: "s0", op: "insert", action: "print 'sat'"},
			{name: "p1", event: "sadd1", table: "s1", op: "insert", action: "print 'sat'"},
		},
		gen: func(g *gen, conn, idx int) op { return insertOp(pairTable("s", conn), g.sym(), g.price()) },
		fires: func(conn, idx int) (string, uint16) {
			return pairTable("sadd", conn), 1 << uint(conn)
		},
	},
	{
		name:  "durable_sync",
		conns: 1, mode: closedLoop, warmup: 1000, rate: 2000, durable: true,
		tables: []string{stockTable},
		rules:  []rule{{name: "t_add", event: "addStk", table: "stock", op: "insert", action: "print 'added'"}},
		gen:    stockInsert,
		fires:  alwaysAddStk,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
