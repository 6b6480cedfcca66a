package main

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/client"
)

const (
	// opTimeout is how long a DML's actions may take before the operation
	// counts as failed: a closed loop abandons the run after that long without
	// a report, and an open-loop reaction later than this after its due time
	// counts as failed. It sits far above the reference host's vCPU stalls
	// (tens to hundreds of milliseconds, which the system cannot help); what
	// it catches is a lost action or a backlog that grows.
	opTimeout = 5 * time.Second
	// traceFlips is how often the tracer's gate flips over the timed phase
	// of a traced run, so traced and untraced blocks interleave finely
	// enough to see the same table sizes and the same host weather.
	traceFlips = 40
)

// occIndex maps the n-th occurrence (vNo n) of one primitive event to the
// DML that raises it. It is computed from the workload's structure before
// the run, so it is read-only while goroutines run.
type occIndex struct {
	conn int
	idx  []int32 // idx[vNo-1]
}

// connState is what one load-generator goroutine owns. The collector never
// touches it; results are combined after both have been joined.
type connState struct {
	conn   *client.Conn
	g      *gen
	sched  *rand.Rand // open loop: inter-arrival times
	sendAt []int64    // by DML idx, ns since base; the due time in the open loop
	// lateBy is, in the open loop, how long after a DML was due and its
	// connection free the generator sent it: the generator's own lateness.
	// Time spent waiting for the connection is the system's and is inside
	// the latency, which runs from the due time.
	lateBy []int64
	sentAt []int64 // open loop: actual send time
	execAt []int64 // Exec returned
	traced []bool  // tracer gate at send time
	class  []stmtClass
	// doneCh carries completed DML indices from the collector. Its capacity
	// covers the window, so in the closed and windowed loops the collector's
	// non-blocking send always lands; the open loop never reads it.
	doneCh chan int32
	tally  *tally
	sent   int // DMLs sent, warm-up included
	firing int // of which expect actions
}

// runState is one deployment under load.
type runState struct {
	w     *workload
	d     *deployment
	tr    *tracer
	ref   *hostRef // ticked by connection 0's generator during the timed phase
	base  time.Time
	total int // planned DMLs per connection, warm-up included
	occ   map[string]*occIndex
	cs    []*connState

	ruleBit map[string]uint16 // internal trigger name -> bit
	ruleMsg map[string]string // internal trigger name -> text its print action emits

	// collector-owned until it is joined
	doneAt     [][]int64
	seen       [][]uint16
	upFirst    [][]int64 // traced: first upstream start of the DML's actions
	upBusy     [][]int64 // traced: upstream time summed over its actions
	actions    int       // verified action reports
	unexpected int       // reports that match no expected (DML, rule)
	actionErrs int       // reports carrying an error

	completed atomic.Int64 // DMLs whose every expected action was reported
	stmtErrs  atomic.Int64
}

func newRunState(w *workload, seed int64, total int) *runState {
	rs := &runState{w: w, total: total, occ: map[string]*occIndex{},
		ruleBit: map[string]uint16{}, ruleMsg: map[string]string{}}
	for i, r := range w.rules {
		rs.ruleBit[internalName(r.name)] = 1 << uint(i)
		if strings.HasPrefix(r.action, "print '") {
			rs.ruleMsg[internalName(r.name)] = r.action[len("print '") : len(r.action)-1]
		}
	}
	for c := 0; c < w.conns; c++ {
		cs := &connState{
			g:      newGen(seed, c),
			sched:  rand.New(rand.NewSource(seed*15485863 + int64(c) + 11)),
			sendAt: make([]int64, total), execAt: make([]int64, total),
			traced: make([]bool, total), class: make([]stmtClass, total),
			tally:  newTally(),
			doneCh: make(chan int32, satWindow+1),
		}
		if w.mode == openLoop {
			cs.lateBy = make([]int64, total)
			cs.sentAt = make([]int64, total)
		}
		rs.cs = append(rs.cs, cs)
		rs.doneAt = append(rs.doneAt, make([]int64, total))
		rs.seen = append(rs.seen, make([]uint16, total))
		rs.upFirst = append(rs.upFirst, make([]int64, total))
		rs.upBusy = append(rs.upBusy, make([]int64, total))
		for idx := 0; idx < total; idx++ {
			ev, _ := w.fires(c, idx)
			if ev == "" {
				continue
			}
			ev = internalName(ev)
			oi := rs.occ[ev]
			if oi == nil {
				oi = &occIndex{conn: c}
				rs.occ[ev] = oi
			}
			oi.idx = append(oi.idx, int32(idx))
		}
	}
	return rs
}

func (rs *runState) now() int64 { return int64(time.Since(rs.base)) }

// collect drains ActionDone until stop is closed, attributing every report
// to the DML that caused it and checking it against the expected multiset.
func (rs *runState) collect(stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	for {
		select {
		case res := <-rs.d.agent.ActionDone:
			rs.onAction(res)
		case <-stop:
			for {
				select {
				case res := <-rs.d.agent.ActionDone:
					rs.onAction(res)
				default:
					return
				}
			}
		}
	}
}

func (rs *runState) onAction(res agent.ActionResult) {
	at := rs.now()
	if res.Err != nil {
		rs.actionErrs++
	}
	bit := rs.ruleBit[res.Rule]
	conn, idx := -1, -1
	for _, c := range res.Occ.Constituents {
		oi := rs.occ[c.Event]
		if oi == nil || c.VNo < 1 || c.VNo > len(oi.idx) {
			continue
		}
		if i := int(oi.idx[c.VNo-1]); i > idx {
			conn, idx = oi.conn, i
		}
	}
	if bit == 0 || idx < 0 {
		rs.unexpected++
		return
	}
	_, want := rs.w.fires(conn, idx)
	if want&bit == 0 || rs.seen[conn][idx]&bit != 0 {
		rs.unexpected++
		return
	}
	if msg, ok := rs.ruleMsg[res.Rule]; ok && (len(res.Messages) != 1 || res.Messages[0] != msg) {
		rs.unexpected++
		return
	}
	rs.seen[conn][idx] |= bit
	rs.actions++
	if rs.tr != nil {
		if sp, ok := rs.tr.takeAction(actionKeyFromResult(res)); ok {
			if rs.upFirst[conn][idx] == 0 || sp.start < rs.upFirst[conn][idx] {
				rs.upFirst[conn][idx] = sp.start
			}
			rs.upBusy[conn][idx] += sp.end - sp.start
		}
	}
	if rs.seen[conn][idx] == want {
		rs.doneAt[conn][idx] = at
		rs.completed.Add(1)
		select {
		case rs.cs[conn].doneCh <- int32(idx):
		default:
		}
	}
}

// drive runs DMLs [from, to) on every connection in the given mode and
// returns once the generators have stopped. deadline (ns since base, 0 for
// none) marks the timed phase: it ends a closed or windowed loop early on
// a host too slow to finish the planned count in time, and in a traced run
// connection 0 flips the tracer's gate traceFlips times over it.
func (rs *runState) drive(mode loopMode, from, to int, deadline int64) {
	var wg sync.WaitGroup
	for c := range rs.cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rs.driveConn(c, mode, from, to, deadline)
		}(c)
	}
	wg.Wait()
}

func (rs *runState) driveConn(c int, mode loopMode, from, to int, deadline int64) {
	cs := rs.cs[c]
	window := 1
	if mode == windowLoop {
		window = satWindow
	}
	outstanding := 0
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	// await blocks until at most limit DMLs are unreported. Every second
	// without a report it lets the run recover a lost datagram; after
	// opTimeout of that it gives up, and settle counts what is missing.
	await := func(limit int) bool {
		for stalled := time.Duration(0); outstanding > limit; {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Second)
			select {
			case <-cs.doneCh:
				outstanding--
				stalled = 0
			case <-timer.C:
				if stalled += time.Second; stalled >= opTimeout {
					return false
				}
				rs.recoverLoss()
			}
		}
		return true
	}

	due := rs.now()
	perConn := float64(rs.w.rate) / float64(len(rs.cs))
	for idx := from; idx < to; idx++ {
		if deadline > 0 && mode != openLoop && rs.now() > deadline {
			break
		}
		if c == 0 && deadline > 0 {
			rs.ref.tick()
		}
		o := rs.w.gen(cs.g, c, idx)
		ev, mask := rs.w.fires(c, idx)
		if rs.tr != nil && c == 0 && deadline > 0 {
			rs.tr.on.Store(((idx-from)*traceFlips/(to-from))%2 == 1)
		}
		cs.traced[idx] = rs.tr != nil && rs.tr.on.Load()
		cs.class[idx] = o.class

		at := rs.now()
		if mode == openLoop {
			due += int64(cs.sched.ExpFloat64() / perConn * 1e9)
			ready := at // the connection is free from here on
			if due > ready {
				time.Sleep(time.Duration(due - ready))
				ready = due
				at = rs.now()
			}
			cs.lateBy[idx] = at - ready
			cs.sentAt[idx] = at
			at = due
		}
		cs.sendAt[idx] = at
		err := cs.conn.MustExec(o.sql)
		cs.execAt[idx] = rs.now()
		cs.sent = idx + 1
		if err != nil {
			rs.stmtErrs.Add(1)
			rs.d.logf("bench: %s: %v", o.sql, err)
			break
		}
		cs.tally.add(o)
		if mask == 0 {
			continue
		}
		cs.tally.fired[ev]++
		cs.firing++
		if mode == openLoop {
			continue
		}
		outstanding++
		if !await(window - 1) {
			return
		}
	}
	if mode != openLoop {
		await(0)
	}
}

// recoverLoss runs the agent's resync sweep. A second without any report
// means the last datagram of an event was lost, which no later datagram
// will reveal; the sweep is the agent's answer to that, and the benchmark
// calls it rather than wait out the sweep's 30 s period.
func (rs *runState) recoverLoss() {
	if err := rs.d.agent.Resync(); err != nil {
		rs.d.logf("bench: resync: %v", err)
	}
}

// settle waits until every DML sent so far is complete, or for opTimeout
// without progress; it reports how many are still incomplete.
func (rs *runState) settle() int {
	want := int64(0)
	for _, cs := range rs.cs {
		want += int64(cs.firing)
	}
	last, lastAt, swept := rs.completed.Load(), time.Now(), false
	for {
		got := rs.completed.Load()
		if got >= want {
			return 0
		}
		switch stalled := time.Since(lastAt); {
		case got != last:
			last, lastAt, swept = got, time.Now(), false
		case stalled > opTimeout:
			return int(want - got)
		case stalled > time.Second && !swept:
			swept = true
			rs.recoverLoss()
		}
		time.Sleep(200 * time.Microsecond)
	}
}
