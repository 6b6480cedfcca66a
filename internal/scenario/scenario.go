// Package scenario is the one harness behind the crash, failover and
// sync-ship proofs: the same workload is driven once against a crash-free
// single-node oracle and once against a subject killed at a named crash
// point, and the subject must reproduce the oracle's occurrence set and
// rule-action multiset — occurrences are neither lost nor detected twice,
// and no action runs zero times or twice.
//
// It holds the operator table, the context list, the step script, the
// crash-point table, the cell lists built from them, the recorders, the
// single-node run and the comparison. A subject that is not a single node
// (the hot pair in internal/cluster) embeds Run and supplies its own
// kill-and-recover step. Like internal/faults, only tests import it.
package scenario

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// Base anchors every run's ManualClocks, so temporal deadlines and
// occurrence timestamps are identical across oracle and subject.
var Base = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// Operator is one composite event expression under test.
type Operator struct{ Name, Expr string }

// Operators covers every Snoop operator (the temporal case is the bare
// absolute-time event, 7s past Base, crossed mid-script) and the CEP
// operators, whose ring and armed-boundary state must survive every crash
// point and whose aggregate thresholds must round-trip through the
// catalog's expression string on recovery.
var Operators = []Operator{
	{"or", "ea | eb"},
	{"and", "ea ^ eb"},
	{"seq", "ea ; eb"},
	// not: eb terminates with ec2 forbidden — the reverse ordering never
	// fires under Script (every ea..ec2 span contains an eb).
	{"not", "not(ea, ec2, eb)"},
	{"aperiodic", "A(ea, eb, ec2)"},
	{"aperiodic-star", "A*(ea, eb, ec2)"},
	{"periodic", "P(ea, [2 sec], ec2)"},
	{"periodic-star", "P*(ea, [2 sec], ec2)"},
	{"plus", "ea plus [3 sec]"},
	{"temporal", "[2030-01-01 00:00:07]"},
	{"window", "window(ea, [3 sec])"},
	{"window-slide", "window(ea | eb, [4 sec], slide [2 sec])"},
	{"agg-count", "agg(count, vno, ea | eb, [3 sec]) >= 2"},
	{"agg-max", "agg(max, vno, ea | eb, [4 sec], slide [2 sec]) != -1"},
	{"during", "(eb ; ec2) during (ea ; ea)"},
	{"overlaps", "(ea ; ec2) overlaps (eb ; eb)"},
}

// Contexts are the four parameter contexts.
var Contexts = []string{"RECENT", "CHRONICLE", "CONTINUOUS", "CUMULATIVE"}

// Step is one workload step: advance the logical clock, insert into a
// monitored table, cut an explicit checkpoint, or flush the held DEFERRED
// firings.
type Step struct {
	Advance time.Duration
	Insert  string
	Ckpt    bool
	Flush   bool
}

// Script interleaves constituent inserts of every operator with clock
// advances (driving P/P*/PLUS/temporal timers and window boundaries) and
// two mid-run checkpoints, so a crash can land before, between, and after
// cuts. It ends with the run's one transaction boundary, which releases
// a DEFERRED rule's held firings.
var Script = []Step{
	{Advance: time.Second, Insert: "ta"},
	{Advance: time.Second, Insert: "tb"},
	{Ckpt: true},
	{Advance: time.Second, Insert: "tc"},
	{Advance: time.Second, Insert: "ta"},
	{Insert: "tb"},
	{Advance: 2 * time.Second, Insert: "tc"},
	{Ckpt: true},
	{Advance: time.Second, Insert: "ta"},
	{Insert: "tb"},
	{Insert: "tc"},
	{Advance: 5 * time.Second},
	{Flush: true},
}

// Crash is a named crash point and the hit it trips on.
type Crash struct {
	Point string
	Nth   int
}

// Crashes is the crash-point table. The nth counts include the hits of
// boot-time recovery (the checkpoint New cuts is epoch 1), so ckpt.* with
// nth=2 trips at the first in-script checkpoint. The last four are the
// replication windows ShipFS adds: between a local occurrence append and
// its ship (the standby must gap-fill via resync), just after (the standby
// must dedup the replayed record), and the same pair around a checkpoint
// image ship.
var Crashes = []Crash{
	{"ingest.preWAL", 2},
	{"ingest.postWAL", 4},
	{"action.preExec", 3},
	{"action.postDone", 2},
	{"ckpt.beforeRename", 2},
	{"ckpt.afterRename", 2},
	{"ckpt.begin", 3},
	{"repl.preShip.occ", 3},
	{"repl.postShip.occ", 3},
	{"repl.preShip.ckpt", 2},
	{"repl.postShip.ckpt", 2},
}

// AgentCrashes are the points a single agent reaches.
var AgentCrashes = Crashes[:7]

// Kill is one subject run: the crash point it arms and the seed of its
// CrashDir's torn tails.
type Kill struct {
	Crash
	Seed int64
}

// Arm returns a crash set armed for k.
func (k Kill) Arm() *faults.CrashSet {
	c := faults.NewCrashSet()
	c.Arm(k.Point, k.Nth)
	return c
}

func (k Kill) String() string { return fmt.Sprintf("%s nth=%d seed=%d", k.Point, k.Nth, k.Seed) }

// Cell is one operator under one context and coupling mode, and the
// kills its subjects take. An empty Coupling is the default, IMMEDIATE.
type Cell struct {
	Op       Operator
	Ctx      string
	Coupling string
	Kills    []Kill
}

// Name is the cell's subtest name.
func (c Cell) Name() string {
	if c.Coupling == "" {
		return c.Op.Name + "/" + c.Ctx
	}
	return c.Op.Name + "/" + c.Ctx + "/" + c.Coupling
}

// Cells lists a matrix: every operator under every context, each killed
// perCell times. The kills deal the points out in turn — the ith kill of
// the kth cell arms points[(k+i) % len(points)] with seed 31k+i+2 — so a
// matrix of at least len(points) cells arms every point.
func Cells(points []Crash, perCell int) []Cell {
	cells := make([]Cell, 0, len(Operators)*len(Contexts))
	for _, op := range Operators {
		for _, ctx := range Contexts {
			k := len(cells)
			c := Cell{Op: op, Ctx: ctx}
			for i := 0; i < perCell; i++ {
				c.Kills = append(c.Kills, Kill{points[(k+i)%len(points)], int64(31*k + i + 2)})
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// CouplingCells lists every operator under RECENT with its composite rule
// under coupling (DETACHED or DEFERRED), each killed once at every agent
// crash point: the ith kill of the kth cell arms AgentCrashes[i] with seed
// 31k+i+2.
func CouplingCells(coupling string) []Cell {
	cells := make([]Cell, 0, len(Operators))
	for k, op := range Operators {
		c := Cell{Op: op, Ctx: "RECENT", Coupling: coupling}
		for i, p := range AgentCrashes {
			c.Kills = append(c.Kills, Kill{p, int64(31*k + i + 2)})
		}
		cells = append(cells, c)
	}
	return cells
}

// One is the cell that runs the named operator under ctx once, killed at
// the named point. It panics on a name neither table has.
func One(op, ctx, point string, seed int64) Cell {
	i := slices.IndexFunc(Operators, func(o Operator) bool { return o.Name == op })
	j := slices.IndexFunc(Crashes, func(c Crash) bool { return c.Point == point })
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("scenario: no operator %q or crash point %q", op, point))
	}
	return Cell{Op: Operators[i], Ctx: ctx, Kills: []Kill{{Crashes[j], seed}}}
}

// ActionRecorder captures rule-action executions at the upstream Exec
// level — the closest observable point to the server running the action
// procedure, which is what exactly-once is about. The recorded batch
// embeds the constituent vNos (context-table population), so the string
// identifies the precise occurrence the action ran for.
type ActionRecorder struct {
	mu      sync.Mutex
	batches []string
}

func (r *ActionRecorder) record(batch string) {
	for _, line := range strings.Split(batch, "\n") {
		if strings.HasPrefix(line, "execute ") {
			r.mu.Lock()
			r.batches = append(r.batches, batch)
			r.mu.Unlock()
			return
		}
	}
}

// Snapshot returns the recorded action batches, sorted.
func (r *ActionRecorder) Snapshot() []string {
	r.mu.Lock()
	out := slices.Clone(r.batches)
	r.mu.Unlock()
	slices.Sort(out)
	return out
}

type recordingUpstream struct {
	agent.Upstream
	rec *ActionRecorder
}

func (u recordingUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	rs, err := u.Upstream.Exec(sql)
	if err == nil {
		u.rec.record(sql)
	}
	return rs, err
}

// RecordingDialer is the in-process dialer with every successful action
// batch kept in rec.
func RecordingDialer(eng *engine.Engine, rec *ActionRecorder) agent.UpstreamDialer {
	inner := agent.LocalDialer(eng)
	return func(user, db string) (agent.Upstream, error) {
		up, err := inner(user, db)
		if err != nil {
			return nil, err
		}
		return recordingUpstream{up, rec}, nil
	}
}

// OccRecorder collects the set of primitive occurrences the LED processed
// (Config.Forward). Journal replay re-forwards records, so the stream is a
// set keyed "event|vNo": recovery must neither lose an occurrence nor
// invent one.
type OccRecorder struct {
	mu   sync.Mutex
	seen map[string]bool
}

// Add is a Config.Forward hook.
func (r *OccRecorder) Add(p led.Primitive) {
	r.mu.Lock()
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	r.seen[fmt.Sprintf("%s|%d", p.Event, p.VNo)] = true
	r.mu.Unlock()
}

// Snapshot returns the occurrence keys, sorted.
func (r *OccRecorder) Snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.seen))
	for k := range r.seen {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Outcome is what a run observed: its occurrence set and action multiset.
type Outcome struct{ Occs, Acts []string }

// Composite counts the actions of the composite rule under test.
func (o Outcome) Composite() int {
	n := 0
	for _, b := range o.Acts {
		if strings.Contains(b, "sc_comp") {
			n++
		}
	}
	return n
}

// diff returns the multiset difference a − b, in a's order.
func diff(a, b []string) []string {
	count := make(map[string]int)
	for _, s := range b {
		count[s]++
	}
	var out []string
	for _, s := range a {
		if count[s] > 0 {
			count[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}
