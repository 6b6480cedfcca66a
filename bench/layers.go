package main

import (
	"strings"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/obs"
)

// seamCounts are the tracer's running counters; the timed phase's share is
// the difference of two snapshots.
type seamCounts struct {
	syncs, bytes, frames, shipped, actionCalls int64
}

func (t *tracer) counts() seamCounts {
	t.mu.Lock()
	calls := t.actionCall
	t.mu.Unlock()
	return seamCounts{t.fsSyncs.Load(), t.fsBytes.Load(), t.frames.Load(), t.shippedBytes.Load(), calls}
}

func (a seamCounts) minus(b seamCounts) seamCounts {
	return seamCounts{a.syncs - b.syncs, a.bytes - b.bytes, a.frames - b.frames, a.shipped - b.shipped, a.actionCalls - b.actionCalls}
}

// layerMetrics turns the traced run's stamps and counters into the
// per-layer metrics. The spans of one DML partition its reaction time
// along the path that blocks it:
//
//	send/due --pre_trigger--> trigger --notify_detect--> Forward
//	  --queue_wait--> first upstream call --upstream (busy, summed over the
//	  DML's actions)--> --report (the rest: hand-offs between its actions
//	  and the last return to ActionDone)--> done
//
// post_trigger (trigger -> Exec returns) runs beside that path and is what
// the client waits for. Each span is reported as its median over the
// traced DMLs; trace.attributed_share is the sum of the blocking-path
// medians over the median traced reaction.
func (rs *runState) layerMetrics(res *result, s *samples, warm int, dc seamCounts,
	stats agent.Stats, hist map[string]obs.HistogramSnapshot) {
	tr := rs.tr
	var pre, post, detect, wait, busy, report []float64
	incomplete, occurrences := 0, 0
	for c, cs := range rs.cs {
		vno := map[string]int{}
		for idx := 0; idx < cs.sent; idx++ {
			ev, mask := rs.w.fires(c, idx)
			if mask == 0 {
				continue
			}
			ev = internalName(ev)
			vno[ev]++
			if idx < warm {
				continue
			}
			occurrences++
			if !cs.traced[idx] || rs.doneAt[c][idx] == 0 {
				continue
			}
			trig, fwd := tr.trig[ev][vno[ev]], tr.fwd[ev][vno[ev]]
			first, up := rs.upFirst[c][idx], rs.upBusy[c][idx]
			if trig == 0 || fwd == 0 || first == 0 {
				incomplete++
				continue
			}
			us := func(ns int64) float64 {
				if ns < 0 {
					ns = 0
				}
				return float64(ns) / 1e3
			}
			reaction := rs.doneAt[c][idx] - cs.sendAt[idx]
			q := first - fwd
			if q < 0 {
				q = 0 // the action goroutine can start before Forward is stamped
			}
			pre = append(pre, us(trig-cs.sendAt[idx]))
			post = append(post, us(cs.execAt[idx]-trig))
			detect = append(detect, us(fwd-trig))
			wait = append(wait, us(q))
			busy = append(busy, us(up))
			report = append(report, us(reaction-(trig-cs.sendAt[idx])-(fwd-trig)-q-up))
		}
	}
	m := res.Metrics
	tracedP50 := p50(append([]float64(nil), s.tracedUs...))
	path := p50(pre) + p50(detect) + p50(wait) + p50(busy) + p50(report)
	m["client_gateway.pre_trigger_us"] = metric{p50(pre), "us"}
	m["gateway.post_trigger_us"] = metric{p50(post), "us"}
	m["notifier_led.notify_detect_us"] = metric{p50(detect), "us"}
	m["action.queue_wait_us"] = metric{p50(wait), "us"}
	m["action.upstream_us"] = metric{p50(busy), "us"}
	m["action.report_us"] = metric{p50(report), "us"}
	m["trace.reaction_p50_us"] = metric{tracedP50, "us"}
	m["trace.attributed_share"] = metric{path / tracedP50, "ratio"}
	m["trace.overhead_share"] = metric{tracedP50/p50(append([]float64(nil), s.reactUs...)) - 1, "ratio"}
	m["gateway.upstream_p50_us"] = metric{p50(tr.sessionUs), "us"}
	res.note("spans from %d traced DMLs (%d more lacked a stamp), overhead against %d untraced", len(pre), incomplete, len(s.reactUs))

	occ := nonZero(float64(occurrences))
	reactionSum := sum(s.tracedUs)
	m["action.upstream_calls_per_action"] = metric{float64(dc.actionCalls) / nonZero(float64(rs.tracedActions(warm))), "count"}
	m["durable.fs_sync_share"] = metric{sum(tr.syncUs) / reactionSum, "ratio"}
	m["durable.fs_syncs_per_occ"] = metric{float64(dc.syncs) / occ, "count"}
	m["durable.wal_bytes_per_occ"] = metric{float64(dc.bytes) / occ, "B"}
	m["cluster.barrier_share"] = metric{(sum(tr.shipUs) + sum(tr.barrierUs)) / reactionSum, "ratio"}
	m["cluster.frames_per_occ"] = metric{float64(dc.frames) / occ, "count"}
	m["cluster.shipped_bytes_per_occ"] = metric{float64(dc.shipped) / occ, "B"}
	if len(tr.syncUs) > 0 {
		res.Detail["durable.fs_sync_p50_us"] = metric{p50(tr.syncUs), "us"}
	}
	if len(tr.shipUs) > 0 {
		res.Detail["cluster.ship_ack_p50_us"] = metric{p50(tr.shipUs), "us"}
		res.Detail["cluster.ship_ack_p99_us"] = metric{p99(tr.shipUs), "us"}
		res.Detail["cluster.barrier_p50_us"] = metric{p50(tr.barrierUs), "us"}
	}

	recv := nonZero(float64(stats.NotificationsReceived))
	m["notifier.gap_share"] = metric{float64(stats.GapsDetected) / recv, "ratio"}
	m["notifier.duplicate_share"] = metric{float64(stats.NotificationsDuplicate) / recv, "ratio"}
	m["led.occurrences_per_notification"] = metric{float64(stats.ActionsRun) / nonZero(float64(stats.NotificationsDelivered)), "count"}
	m["action.dead_lettered"] = metric{float64(stats.ActionsDeadLettered), "count"}
	m["action.upstream_retries"] = metric{float64(stats.UpstreamRetries), "count"}
	for name, key := range map[string]string{
		"gateway.batch_mean_us":  "eca_gateway_batch_seconds",
		"led.detect_mean_us":     "eca_detect_latency_seconds",
		"action.latency_mean_us": "eca_action_latency_seconds",
	} {
		h := hist[key]
		m[name] = metric{h.Sum / nonZero(float64(h.Count)) * 1e6, "us"}
	}
	// Only the open loop has a schedule to be late for; elsewhere both are 0.
	m["loadgen.late_share"] = metric{res.Detail["loadgen.late_share"].Value, "ratio"}
	m["loadgen.backlog_end"] = metric{res.Detail["loadgen.backlog_end"].Value, "count"}
	delete(res.Detail, "loadgen.late_share")
	delete(res.Detail, "loadgen.backlog_end")
}

// tracedActions counts the actions of the timed DMLs sent while the
// tracer's gate was set: the denominator for upstream calls per action.
func (rs *runState) tracedActions(warm int) int {
	n := 0
	for c, cs := range rs.cs {
		for idx := warm; idx < cs.sent; idx++ {
			if !cs.traced[idx] {
				continue
			}
			_, mask := rs.w.fires(c, idx)
			for ; mask != 0; mask &= mask - 1 {
				n++
			}
		}
	}
	return n
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// replayActions splits the Action Handler's one upstream call into its two
// halves, which no seam separates: it replays a sample of the run's own
// action scripts on the direct connection, the context materialisation
// (everything before the final "execute") and the procedure call apart.
// It runs after the output checks, because it re-executes actions, and as
// the agent's own login, because that is who owns sysContext.
func replayActions(d *deployment, tr *tracer, res *result) {
	tr.mu.Lock()
	scripts := append([]string(nil), tr.scripts...)
	tr.mu.Unlock()
	dbo, err := client.Connect(d.srv.Addr(), client.Options{User: "dbo"})
	if err != nil {
		res.fail("replaying actions: %v", err)
		return
	}
	defer dbo.Close()
	var mat, proc []float64
	for _, sql := range scripts {
		cut := strings.LastIndexByte(sql, '\n')
		start := tr.now()
		if err := dbo.MustExec(sql[:cut]); err != nil {
			res.fail("replaying context materialisation: %v", err)
			return
		}
		mid := tr.now()
		if err := dbo.MustExec("use " + benchDB + "\n" + sql[cut+1:]); err != nil {
			res.fail("replaying action procedure: %v", err)
			return
		}
		mat = append(mat, float64(mid-start)/1e3)
		proc = append(proc, float64(tr.now()-mid)/1e3)
	}
	res.Metrics["action.materialize_us"] = metric{p50(mat), "us"}
	res.Metrics["action.proc_exec_us"] = metric{p50(proc), "us"}
}
