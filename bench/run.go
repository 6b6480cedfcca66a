package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// ops overrides the planned timed DML count (rate x seconds) and warmup
	// the workload's warm-up count; the smoke test uses both to stay small.
	ops    int
	warmup int
	// setups is how many times the deployment is set up; the last one is
	// measured, and setup_s is the median over all of them.
	setups int
}

// result is what one run reports. Metrics holds exactly the BENCHMARK.json
// names for the run's mode (end-to-end untraced, per-layer traced); Detail
// holds numbers only some workloads can produce (per statement class, the
// in-situ durability timings), printed but not part of the contract.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail,omitempty"`
	// Notes are sample counts and the reasons behind Correct == false.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.note("FAILED CHECK: "+format, args...)
}

// setUp deploys w, starts the collector and runs the warm-up DMLs; what it
// takes is setup_s.
func setUp(w *workload, cfg runConfig, warm, total int) (*runState, func(), error) {
	rs := newRunState(w, cfg.seed, total)
	rs.base = time.Now()
	if cfg.trace {
		rs.tr = newTracer(rs.base, rs.occ)
	}
	d, err := deploy(w, rs.cs[0].g, rs.tr)
	if err != nil {
		return nil, nil, err
	}
	rs.d = d
	for c, cs := range rs.cs {
		cs.conn = d.conns[c]
	}
	for _, o := range d.rows {
		rs.cs[0].tally.add(o)
	}
	stop := make(chan struct{})
	var collector sync.WaitGroup
	collector.Add(1)
	go rs.collect(stop, &collector)
	stopCollector := func() {
		close(stop)
		collector.Wait()
	}
	mode := w.mode
	if mode == openLoop {
		mode = windowLoop
	}
	rs.drive(mode, 0, warm, 0)
	if missing := rs.settle(); missing > 0 || rs.stmtErrs.Load() > 0 {
		stopCollector()
		d.close()
		d.removeData()
		_, logged := d.logs()
		return nil, nil, fmt.Errorf("warm-up: %d DMLs incomplete, %d statement errors: %s",
			missing, rs.stmtErrs.Load(), logged)
	}
	return rs, stopCollector, nil
}

func runWorkload(w *workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Correct: true,
		Metrics: map[string]metric{}, Detail: map[string]metric{}}
	calibBefore := calibrate()

	timed := cfg.ops
	if timed <= 0 {
		timed = int(float64(w.rate) * cfg.seconds)
	}
	perConn := timed / w.conns
	warm := w.warmup
	if cfg.warmup > 0 {
		warm = cfg.warmup
	}
	total := warm + perConn

	var (
		rs            *runState
		stopCollector func()
		setupS        []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if rs != nil {
			stopCollector()
			rs.d.close()
			rs.d.removeData()
		}
		start := time.Now()
		var err error
		rs, stopCollector, err = setUp(w, cfg, warm, total)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	d, tr := rs.d, rs.tr
	ref, err := newHostRef()
	if err != nil {
		stopCollector()
		d.close()
		d.removeData()
		return nil, err
	}
	defer ref.close()
	rs.ref = ref

	// The timed phase.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	warmActions := rs.actions // the collector is idle: warm-up has settled
	var c0, c1 seamCounts
	if tr != nil {
		c0 = tr.counts()
	}
	t0 := rs.now()
	rs.drive(w.mode, warm, total, t0+int64(cfg.seconds*1e9))
	missing := rs.settle()
	if tr != nil {
		tr.on.Store(false)
		c1 = tr.counts()
	}
	runtime.ReadMemStats(&m1)
	stopCollector()
	stats := d.agent.Stats()

	// Output checks, on the live deployment.
	tl := newTally()
	sent := 0
	for _, cs := range rs.cs {
		sent += cs.sent - warm
		for t, n := range cs.tally.rows {
			tl.rows[t] += n
			tl.sum[t] += cs.tally.sum[t]
		}
		for ev, n := range cs.tally.fired {
			tl.fired[ev] += n
		}
	}
	res.Attempted = sent
	rs.checkOutputs(res, tl, stats, missing)
	shadowRows := 0.0
	for _, r := range w.rules {
		if r.table == "" {
			continue
		}
		kind := "inserted"
		if r.op == "delete" {
			kind = "deleted"
		}
		n, err := d.scalar("select count(*) from " + shadowTable(r.table, kind))
		if err != nil {
			res.fail("%v", err)
		}
		shadowRows += n
		if want := float64(tl.fired[r.event]); n != want {
			res.fail("shadow table of %s holds %v rows, want %v", r.event, n, want)
		}
	}
	if tr != nil {
		replayActions(d, tr, res) // after the checks: it re-executes actions
	}
	if n, first := d.logs(); n > 0 {
		res.note("the agent logged %d diagnostics, first: %s", n, first)
	}
	hist := d.agent.Metrics().Histograms()
	degraded := d.ctl != nil && d.ctl.Degraded()

	// Closing the deployment joins every goroutine that stamps or counts,
	// so everything below reads settled data.
	d.close()
	if w.durable {
		if degraded {
			res.fail("sync replication degraded to async during the run")
		}
		wm, _, err := agent.DurableOccurrences(d.standbyFS)
		ev := internalName(w.rules[0].event)
		if err != nil {
			res.fail("reading the standby directory: %v", err)
		} else if wm[ev] < tl.fired[w.rules[0].event] {
			res.fail("standby holds %s up to vNo %d, but vNo %d was acknowledged", ev, wm[ev], tl.fired[w.rules[0].event])
		}
	}
	d.removeData()

	s := rs.timedSamples(warm, t0, warmActions)
	if s.overLimit > 0 {
		res.Failed += s.overLimit
		res.note("%d reactions exceeded the %v limit", s.overLimit, opTimeout)
	}
	if w.mode == openLoop {
		rs.openLoopHygiene(res, &s, warm)
	}
	if len(s.reactUs) == 0 || len(s.stmtUs) == 0 {
		return nil, fmt.Errorf("%s: no samples in the timed phase", w.name)
	}

	// Every timing is a percentile over all of the timed phase's samples and
	// every rate a count over its whole length: the workloads run the same
	// DMLs on every commit, so the whole run is the one population that is the
	// same each time (context_fanout slows as its shadow table grows, so a
	// slice of it by time is a different slice on a faster host). The 99th
	// percentiles are reported, not gated: on the reference host they follow
	// the host's vCPU stalls, not the commit (see README.md). They are taken
	// over every timed sample, traced or not.
	wall := (s.t1 - s.t0) / 1e9
	allUs := append(append([]float64(nil), s.reactUs...), s.tracedUs...)
	tails := map[string]metric{
		"reaction_p99_us": {p99(allUs), "us"},
		"stmt_p99_us":     {p99(append([]float64(nil), s.stmtUs...)), "us"},
	}
	res.note("samples: %d reactions, %d statements, %d actions over %.2f s",
		len(allUs), len(s.stmtUs), s.actions, wall)

	if len(ref.us) == 0 {
		return nil, fmt.Errorf("%s: the host reference never ran", w.name)
	}
	host := ref.factor()
	res.note("host reference: %d units, median %.2f us (nominal %.0f us): times x %.4f, rates / %.4f",
		len(ref.us), ref.p50(), refNominalUs, host, host)

	if !cfg.trace {
		// End-to-end times and rates are scaled to the reference host's
		// nominal speed (hostref.go); the detail lines carry them as measured.
		// The open loop's timed phase is reported as measured: its rates are
		// its schedule's, and half its latency is waiting (for the timer, for
		// the queue), which a faster host does not shorten in proportion.
		timed := host
		if w.mode == openLoop {
			timed = 1
		}
		res.Detail["raw.setup_s"] = metric{median(setupS), "s"}
		res.Metrics["setup_s"] = metric{median(setupS) * host, "s"}
		for k, m := range map[string]metric{
			"reaction_p50_us": {p50(append([]float64(nil), s.reactUs...)), "us"},
			"stmt_p50_us":     {p50(append([]float64(nil), s.stmtUs...)), "us"},
			"actions_per_s":   {float64(s.actions) / wall, "1/s"},
			"stmts_per_s":     {float64(len(s.stmtUs)) / wall, "1/s"},
		} {
			res.Detail["raw."+k] = m
			if m.Unit == "1/s" {
				m.Value /= timed
			} else {
				m.Value *= timed
			}
			res.Metrics[k] = m
		}
		res.Detail["host.ref_p50_us"] = metric{ref.p50(), "us"}
		res.Metrics["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
		for k, v := range tails {
			res.Detail[k] = v
		}
		for cls := stmtClass(0); cls < numClasses; cls++ {
			var us []float64
			for i, c := range s.stmtClass {
				if c == cls {
					us = append(us, s.stmtUs[i])
				}
			}
			if len(us) > 0 {
				res.Detail["client.stmt_p50_us."+classNames[cls]] = metric{p50(us), "us"}
			}
		}
		return res, nil
	}

	for k, v := range tails {
		res.Metrics[k] = v
	}
	rs.layerMetrics(res, &s, warm, c1.minus(c0), stats, hist)
	res.Metrics["storage.shadow_rows_end"] = metric{shadowRows, "count"}
	res.Metrics["go.allocs_per_op"] = metric{float64(m1.Mallocs-m0.Mallocs) / float64(sent), "count"}
	res.Metrics["go.gc_cpu_share"] = metric{m1.GCCPUFraction, "ratio"}
	res.Metrics["host.ref_p50_us"] = metric{ref.p50(), "us"}
	res.Metrics["host.calib_before_ns"] = metric{calibBefore, "ns"}
	probes, err := runProbes(w, cfg.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	for k, v := range probes {
		res.Metrics[k] = v
	}
	res.Metrics["host.calib_after_ns"] = metric{calibrate(), "ns"}
	return res, nil
}

// samples are the timed phase's measurements, flattened over connections.
// Times are ns since the run's base; durations are in microseconds.
type samples struct {
	t0, t1    float64
	reactUs   []float64 // untraced reactions, from send (or due) time
	tracedUs  []float64 // reactions sent while the tracer's gate was set
	stmtUs    []float64
	stmtClass []stmtClass
	actions   int       // verified action reports
	lateUs    []float64 // open loop: send lateness
	overLimit int       // open loop: reactions beyond opTimeout
}

// timedSamples flattens the timed phase's measurements over connections.
func (rs *runState) timedSamples(warm int, t0 int64, warmActions int) samples {
	w := rs.w
	s := samples{t0: float64(t0)}
	for c, cs := range rs.cs {
		for idx := warm; idx < cs.sent; idx++ {
			sendAt := cs.sendAt[idx]
			actual := sendAt
			if cs.lateBy != nil {
				actual = cs.sentAt[idx]
				s.lateUs = append(s.lateUs, float64(cs.lateBy[idx])/1e3)
			}
			s.stmtUs = append(s.stmtUs, float64(cs.execAt[idx]-actual)/1e3)
			s.stmtClass = append(s.stmtClass, cs.class[idx])
			s.t1 = math.Max(s.t1, float64(cs.execAt[idx]))
			if _, mask := w.fires(c, idx); mask == 0 {
				continue
			}
			doneAt := rs.doneAt[c][idx]
			if doneAt == 0 {
				continue
			}
			s.t1 = math.Max(s.t1, float64(doneAt))
			us := float64(doneAt-sendAt) / 1e3
			if w.mode == openLoop && us > float64(opTimeout/time.Microsecond) {
				s.overLimit++
			}
			if cs.traced[idx] {
				s.tracedUs = append(s.tracedUs, us)
			} else {
				s.reactUs = append(s.reactUs, us)
			}
		}
	}
	s.actions = rs.actions - warmActions
	return s
}

// checkOutputs is the generic part of the output checks: statement errors,
// the action multiset, the notifier's accounting identity, dead letters,
// base-table row counts, plus the workload's own checks.
func (rs *runState) checkOutputs(res *result, tl *tally, stats agent.Stats, missing int) {
	d := rs.d
	res.Failed += int(rs.stmtErrs.Load()) + missing + rs.unexpected + rs.actionErrs + int(stats.ActionsDeadLettered)
	if n := rs.stmtErrs.Load(); n > 0 {
		_, logged := d.logs()
		res.fail("%d statements failed: %s", n, logged)
	}
	if missing > 0 {
		res.fail("%d DMLs did not see all their actions within %v", missing, opTimeout)
	}
	if rs.unexpected > 0 || rs.actionErrs > 0 {
		res.fail("action multiset: %d unexpected reports, %d reports with errors", rs.unexpected, rs.actionErrs)
	}
	wantActions := 0
	for c, cs := range rs.cs {
		for idx := 0; idx < cs.sent; idx++ {
			_, mask := rs.w.fires(c, idx)
			for ; mask != 0; mask &= mask - 1 {
				wantActions++
			}
		}
	}
	if missing == 0 && rs.actions != wantActions {
		res.fail("%d verified actions, the generator expects %d", rs.actions, wantActions)
	}
	if stats.NotificationsReceived != stats.NotificationsDelivered+stats.NotificationsDropped+stats.NotificationsDuplicate {
		res.fail("notifier: received %d != delivered %d + dropped %d + duplicate %d", stats.NotificationsReceived,
			stats.NotificationsDelivered, stats.NotificationsDropped, stats.NotificationsDuplicate)
	}
	if stats.ActionsDeadLettered > 0 || len(d.agent.DeadLetters()) > 0 {
		res.fail("%d actions dead-lettered", stats.ActionsDeadLettered)
	}
	if stats.ActionReportsDropped > 0 {
		res.fail("%d action reports dropped by a full ActionDone", stats.ActionReportsDropped)
	}
	checks := []check{}
	for t, n := range tl.rows {
		checks = append(checks, check{"rows of " + t, "select count(*) from " + t, float64(n)})
	}
	if rs.w.checks != nil {
		checks = append(checks, rs.w.checks(tl)...)
	}
	for _, c := range checks {
		got, err := d.scalar(c.sql)
		if err != nil {
			res.fail("%s: %v", c.what, err)
		} else if got != c.want {
			res.fail("%s: got %v, want %v", c.what, got, c.want)
		}
	}
}

// openLoopHygiene reports how far the generator, not the system, shaped an
// open-loop run: the share of sends over 2 ms late and the backlog when the
// last arrival was due. A run with more than 1 % late sends (of 1000 or
// more, where 1 % is ten sends and not two) or a backlog above one second
// of arrivals is noted as invalid. It does not fail the run: on a shared
// host a busy neighbour makes the generator late, which no commit can help,
// and the system's outputs are correct all the same.
func (rs *runState) openLoopHygiene(res *result, s *samples, warm int) {
	late := 0
	for _, us := range s.lateUs {
		if us > 2000 {
			late++
		}
	}
	scheduleEnd := int64(0)
	for _, cs := range rs.cs {
		if cs.sent > warm && cs.sendAt[cs.sent-1] > scheduleEnd {
			scheduleEnd = cs.sendAt[cs.sent-1]
		}
	}
	backlog := 0
	for c, cs := range rs.cs {
		for idx := warm; idx < cs.sent; idx++ {
			if _, mask := rs.w.fires(c, idx); mask != 0 && (rs.doneAt[c][idx] == 0 || rs.doneAt[c][idx] > scheduleEnd) {
				backlog++
			}
		}
	}
	res.Detail["loadgen.sched_lag_p99_us"] = metric{p99(append([]float64(nil), s.lateUs...)), "us"}
	res.Detail["loadgen.late_share"] = metric{float64(late) / float64(len(s.lateUs)), "ratio"}
	res.Detail["loadgen.backlog_end"] = metric{float64(backlog), "count"}
	if len(s.lateUs) >= 1000 && float64(late) > 0.01*float64(len(s.lateUs)) {
		res.note("INVALID open-loop run: %d of %d sends were more than 2 ms late", late, len(s.lateUs))
	}
	if backlog > rs.w.rate {
		res.note("INVALID open-loop run: backlog of %d DMLs at the end of the schedule exceeds 1 s of arrivals", backlog)
	}
}

// calibrate times a fixed integer loop, in ns per 1000 iterations. It is
// reported before and after each workload so a reader can tell a slow
// host from a slow commit.
func calibrate() float64 {
	const iters = 4_000_000
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		el := float64(time.Since(start).Nanoseconds())
		if x == 0 {
			el++ // keep x live
		}
		best = math.Min(best, el)
	}
	return best / (iters / 1000)
}

// rssPeakMB is the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
