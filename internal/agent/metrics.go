package agent

import (
	"time"

	"github.com/activedb/ecaagent/internal/obs"
)

// agentMetrics holds the agent's instruments. The first block is the one
// counter ledger: Stats() reads these same registry counters, so /stats
// and /metrics cannot disagree.
type agentMetrics struct {
	reg *obs.Registry

	notifReceived   *obs.Counter
	notifDelivered  *obs.Counter
	notifDropped    *obs.Counter
	notifDuplicate  *obs.Counter
	gapsDetected    *obs.Counter
	occRecovered    *obs.Counter
	ecaCommands     *obs.Counter
	passThrough     *obs.Counter
	actionsRun      *obs.Counter
	actionsFailed   *obs.Counter
	deadLettered    *obs.Counter
	reportsDropped  *obs.Counter
	upstreamRetries *obs.Counter
	reconnects      *obs.Counter

	// gateway (Language Filter) path
	gatewayBatchSec *obs.Histogram

	// Event Notifier receive path
	notifierDatagrams *obs.Counter
	notifierBytes     *obs.Counter
	binaryBatches     *obs.Counter

	// Action Handler path
	ruleRuns  *obs.CounterVec
	ruleFails *obs.CounterVec
	actionSec *obs.Histogram

	// recovery path
	resyncSweeps *obs.Counter
	resyncSec    *obs.Histogram
}

// initMetrics registers every agent instrument in reg. Called once from
// New, before anything can count.
func (a *Agent) initMetrics(reg *obs.Registry) {
	m := &agentMetrics{reg: reg}

	m.notifReceived = reg.Counter("eca_notifications_received_total",
		"Notification datagrams delivered to the Event Notifier (UDP or in-process).")
	m.notifDelivered = reg.Counter("eca_notifications_delivered_total",
		"Well-formed, non-duplicate notifications signalled into the LED.")
	m.notifDropped = reg.Counter("eca_notifications_dropped_total",
		"Malformed notification datagrams discarded.")
	m.notifDuplicate = reg.Counter("eca_notifications_duplicate_total",
		"Notifications suppressed by the per-event vNo watermark.")
	m.gapsDetected = reg.Counter("eca_notification_gaps_total",
		"vNo gaps observed in-stream or by the resync sweep.")
	m.occRecovered = reg.Counter("eca_occurrences_recovered_total",
		"Primitive occurrences replayed into the LED after notification loss.")
	m.ecaCommands = reg.Counter("eca_commands_total",
		"CREATE/DROP trigger commands intercepted by the Language Filter.")
	m.passThrough = reg.Counter("eca_passthrough_batches_total",
		"SQL batches forwarded to the server untouched.")
	m.actionsRun = reg.Counter("eca_actions_run_total",
		"Completed rule actions.")
	m.actionsFailed = reg.Counter("eca_actions_failed_total",
		"Rule actions whose procedure returned an error.")
	m.deadLettered = reg.Counter("eca_actions_deadlettered_total",
		"Failed actions parked in the dead-letter queue.")
	m.reportsDropped = reg.Counter("eca_action_reports_dropped_total",
		"Completed-action reports dropped because ActionDone was full.")
	m.upstreamRetries = reg.Counter("eca_upstream_retries_total",
		"Re-attempts of upstream batches after retryable failures.")
	m.reconnects = reg.Counter("eca_upstream_reconnects_total",
		"Fresh upstream connections dialed to replace broken ones.")

	reg.GaugeFunc("eca_events",
		"Registered events (primitive and composite).",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.events))
		})
	reg.GaugeFunc("eca_triggers",
		"Registered ECA triggers (rules).",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.triggers))
		})
	reg.GaugeFunc("eca_dead_letters",
		"Failed rule actions currently parked in the dead-letter queue.",
		func() float64 { return float64(a.dlq.len()) })
	reg.GaugeFunc("eca_deferred_actions",
		"Deferred rule firings queued for the next transaction boundary.",
		func() float64 { return float64(a.led.DeferredCount()) })

	m.gatewayBatchSec = reg.Histogram("eca_gateway_batch_seconds",
		"Language Filter latency per client batch (classification plus handling), seconds.", nil)
	m.notifierDatagrams = reg.Counter("eca_notifier_datagrams_total",
		"Raw datagrams read from the UDP notification socket.")
	m.notifierBytes = reg.Counter("eca_notifier_bytes_total",
		"Raw bytes read from the UDP notification socket.")
	m.binaryBatches = reg.Counter("eca_binary_batches_total",
		"ECB1 binary notification batches delivered (UDP or in-process).")
	m.ruleRuns = reg.CounterVec("eca_rule_runs_total",
		"Completed rule actions, by trigger.", "rule")
	m.ruleFails = reg.CounterVec("eca_rule_failures_total",
		"Failed rule actions, by trigger.", "rule")
	m.actionSec = reg.Histogram("eca_action_latency_seconds",
		"Rule action latency from detection (queue) to procedure completion, seconds.", nil)
	m.resyncSweeps = reg.Counter("eca_resync_sweeps_total",
		"Resync sweeps executed against the authoritative vNo counters.")
	m.resyncSec = reg.Histogram("eca_resync_seconds",
		"Resync sweep duration, seconds.", nil)

	a.met = m
	a.led.EnableMetrics(reg)
}

// Metrics exposes the agent's registry — the handle the admin HTTP server
// and embedding programs use, and the place extra application metrics can
// be registered to ride along on /metrics.
func (a *Agent) Metrics() *obs.Registry { return a.met.reg }

// recoveryMetrics instruments the durability layer; registered only when
// Config.Durability is set.
type recoveryMetrics struct {
	checkpoints *obs.Counter
	ckptSec     *obs.Histogram
	ckptBytes   *obs.Gauge
	walRecords  *obs.Counter
	walBytes    *obs.Counter
	walSyncs    *obs.Counter
	replayed    *obs.Counter
	resumed     *obs.Counter
	deduped     *obs.Counter
	withheld    *obs.Counter
	recoverySec *obs.Histogram
}

func (d *durableState) initRecoveryMetrics(reg *obs.Registry) {
	d.met.checkpoints = reg.Counter("eca_recovery_checkpoints_total",
		"Durable checkpoint generations cut (periodic, recovery and Close).")
	d.met.ckptSec = reg.Histogram("eca_recovery_checkpoint_seconds",
		"Checkpoint cut duration (freeze, encode, fsync, publish, journal rotation), seconds.", nil)
	d.met.ckptBytes = reg.Gauge("eca_recovery_checkpoint_bytes",
		"Size of the last published checkpoint file.")
	d.met.walRecords = reg.Counter("eca_recovery_wal_records_total",
		"Records appended to the write-ahead journal (occurrences and action completions).")
	d.met.walBytes = reg.Counter("eca_recovery_wal_bytes_total",
		"Bytes appended to the write-ahead journal.")
	d.met.walSyncs = reg.Counter("eca_recovery_wal_syncs_total",
		"Journal fsyncs (per record under always, batched under group commit).")
	d.met.replayed = reg.Counter("eca_recovery_replayed_records_total",
		"Journal records replayed during startup recovery.")
	d.met.resumed = reg.Counter("eca_recovery_resumed_actions_total",
		"Rule actions re-launched at recovery because no done record covered them.")
	d.met.deduped = reg.Counter("eca_recovery_deduped_actions_total",
		"Rule firings suppressed by the action ledger (already done or already claimed).")
	d.met.withheld = reg.Counter("eca_recovery_withheld_occurrences_total",
		"Occurrences journaled but not acknowledged because the replication barrier failed.")
	d.met.recoverySec = reg.Histogram("eca_recovery_seconds",
		"Startup recovery latency: checkpoint restore, journal replay, resume and gap fill, seconds.", nil)
	reg.GaugeFunc("eca_recovery_checkpoint_age_seconds",
		"Seconds since the last completed checkpoint.",
		func() float64 {
			ns := d.lastCkpt.Load()
			if ns == 0 {
				return 0
			}
			return d.a.clock.Now().Sub(time.Unix(0, ns)).Seconds()
		})
}
