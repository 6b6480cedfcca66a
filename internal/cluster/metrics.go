package cluster

import (
	"sync"

	"github.com/activedb/ecaagent/internal/obs"
)

// Metrics is the cluster-layer instrument set, registered on the node's
// obs registry so the eca_cluster_* families appear on the same /metrics
// endpoint as the agent's own instruments.
type Metrics struct {
	role *obs.GaugeVec // eca_cluster_role, one 0/1 series per role name

	HeartbeatsSent   *obs.Counter
	HeartbeatsSeen   *obs.Counter
	HeartbeatsMissed *obs.Counter
	Promotions       *obs.Counter
	FencedRejections *obs.Counter

	ReplShippedFrames *obs.Counter
	ReplShippedBytes  *obs.Counter
	ReplAppliedFrames *obs.Counter
	ReplErrors        *obs.Counter
	ReplLagBytes      *obs.Gauge
	ReplLagRecords    *obs.Gauge

	ReplDegraded     *obs.Gauge
	ReplHalted       *obs.Gauge
	ReplSyncBarriers *obs.Counter
	ReplSyncTimeouts *obs.Counter

	AuthRenewals    *obs.Counter
	AuthRenewFailed *obs.Counter
	AuthLeaseLost   *obs.Counter

	mu      sync.Mutex
	curRole string // guarded by mu
}

// NewMetrics registers the cluster families on reg. Each node registers
// once; reg is typically the agent's own registry (Agent.Metrics).
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		role: reg.GaugeVec("eca_cluster_role",
			"Current cluster role (1 on exactly one series).", "role"),
		HeartbeatsSent: reg.Counter("eca_cluster_heartbeats_sent_total",
			"Heartbeat frames this node emitted."),
		HeartbeatsSeen: reg.Counter("eca_cluster_heartbeats_seen_total",
			"Heartbeat frames this node observed."),
		HeartbeatsMissed: reg.Counter("eca_cluster_heartbeats_missed_total",
			"Monitor intervals that elapsed without a heartbeat."),
		Promotions: reg.Counter("eca_cluster_promotions_total",
			"Standby-to-primary promotions this node performed."),
		FencedRejections: reg.Counter("eca_cluster_fenced_rejections_total",
			"Upstream executions rejected because the fencing token was stale."),
		ReplShippedFrames: reg.Counter("eca_cluster_repl_shipped_frames_total",
			"Replication frames shipped to the standby."),
		ReplShippedBytes: reg.Counter("eca_cluster_repl_shipped_bytes_total",
			"Replication payload bytes shipped to the standby."),
		ReplAppliedFrames: reg.Counter("eca_cluster_repl_applied_frames_total",
			"Replication frames applied to the local replica directory."),
		ReplErrors: reg.Counter("eca_cluster_repl_errors_total",
			"Replication ship/apply failures (the standby is falling behind)."),
		ReplLagBytes: reg.Gauge("eca_cluster_repl_lag_bytes",
			"Bytes accepted for shipping but not yet acknowledged durable on the standby."),
		ReplLagRecords: reg.Gauge("eca_cluster_repl_lag_records",
			"Frames accepted for shipping but not yet acknowledged durable on the standby."),
		ReplDegraded: reg.Gauge("eca_cluster_repl_degraded",
			"1 while synchronous replication is suspended (standby not acknowledging)."),
		ReplHalted: reg.Gauge("eca_cluster_repl_halted",
			"1 after the halt degradation policy tripped (occurrences withheld)."),
		ReplSyncBarriers: reg.Counter("eca_cluster_repl_sync_barriers_total",
			"Occurrence acknowledgements that waited on the synchronous-ship barrier."),
		ReplSyncTimeouts: reg.Counter("eca_cluster_repl_sync_timeouts_total",
			"Synchronous-ship barriers that failed (timeout or dead link)."),
		AuthRenewals: reg.Counter("eca_cluster_auth_renewals_total",
			"Successful epoch lease renewals against the SQL authority."),
		AuthRenewFailed: reg.Counter("eca_cluster_auth_renew_failures_total",
			"Epoch lease renewal attempts that failed (server unreachable or CAS miss)."),
		AuthLeaseLost: reg.Counter("eca_cluster_auth_lease_lost_total",
			"Times this node discovered its epoch lease was superseded."),
	}
	return m
}

// SetRole flips the eca_cluster_role series so exactly the current role
// reads 1.
func (m *Metrics) SetRole(role string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.curRole != "" && m.curRole != role {
		m.role.With(m.curRole).Set(0)
	}
	m.curRole = role
	m.role.With(role).Set(1)
}

// Role reports the last role SetRole recorded.
func (m *Metrics) Role() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.curRole
}
