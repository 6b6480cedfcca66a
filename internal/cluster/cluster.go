// Package cluster turns the single-process ECA agent into a hot pair: one
// primary ingests every notification and streams its durable state — the
// checkpoint and WAL byte formats, reused verbatim — to one standby,
// which promotes within a bounded, clock-driven deadline once a run of
// missed heartbeats declares the primary dead. Both share one
// notification address, so a failover moves the whole event graph at
// once; nothing splits it across nodes.
//
// The design leans on three existing seams instead of inventing new
// machinery:
//
//   - storage.FS: replication is a filesystem tee (ShipFS). The primary's
//     durability layer is untouched; every byte it makes durable locally
//     is first framed and shipped, so the standby's directory is a prefix
//     of the primary's at every instant (stream order == WAL order).
//   - agent recovery: promotion is just agent.New over the replica
//     directory. Checkpoint restore, journal replay, pending-action
//     resume and the shadow-table Resync gap-fill do all the work; the
//     cluster layer only decides *when* to boot.
//   - led.Clock: every cluster timer (heartbeats, hysteresis, lease
//     renewal, sync-degrade grace) runs on the Clock seam, on a control
//     clock separate from the LED's data clock, so the chaos suite can
//     drive failure detection deterministically without perturbing
//     temporal-operator timelines.
//
// Split-brain is handled by fencing, not by hoping: promotion acquires a
// fresh epoch from the Authority (in production an epoch row in the
// shared SQL server, here an in-process model of it), and every upstream
// connection is wrapped so a zombie ex-primary's action executions are
// rejected with ErrFenced — dead-lettered and counted, never silently
// double-fired.
package cluster

// Role names a node's position in the cluster, as reported by the
// readiness probe and the eca_cluster_role metric.
const (
	RolePrimary   = "primary"
	RoleStandby   = "standby"
	RolePromoting = "promoting"
	RoleDead      = "dead"
)
