package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/led"
)

// Replication modes (-repl-mode). Async is PR 6's fire-and-forget tee:
// local durability never waits for the standby, and a failover may have
// to gap-fill the un-shipped WAL tail from the shadow tables (RPO > 0).
// Sync is the chain-replication setting: an occurrence is not
// acknowledged — not signalled into the detector, so no action can
// launch for it — until the standby has durably appended the shipped WAL
// record and its cumulative ack has come back (RPO = 0 for everything
// acknowledged).
const (
	ReplModeAsync = "async"
	ReplModeSync  = "sync"
)

// Degradation policies for sync mode (-repl-degrade): what a primary does
// when the standby stops acknowledging within the deadline.
const (
	// DegradeAsync drops to asynchronous shipping — loudly (gauge, log,
	// readiness after the grace window) — and re-enters sync once the
	// standby has acknowledged everything shipped. Availability over the
	// zero-RPO guarantee.
	DegradeAsync = "async"
	// DegradeHalt fences the primary's own acknowledgement path on the
	// first failed ship or ack: every occurrence stays journaled locally
	// but is withheld from the detector until an operator intervenes or
	// the node is superseded. The zero-RPO guarantee over availability.
	DegradeHalt = "halt"
)

// ErrReplHalted reports that synchronous replication failed under the
// halt policy: the occurrence is locally durable but must not be
// acknowledged, because the standby never confirmed it.
var ErrReplHalted = errors.New("cluster: synchronous replication halted: standby did not acknowledge (-repl-degrade halt)")

// SyncConfig tunes a SyncController.
type SyncConfig struct {
	// Mode selects ReplModeAsync (Barrier is a no-op) or ReplModeSync.
	Mode string
	// Degrade selects the sync-failure policy (default DegradeAsync).
	Degrade string
	// Grace is how long the standby may stay unreachable/unacknowledging
	// before the readiness gate fails the node (default 10s).
	Grace time.Duration
	// Clock drives the grace accounting (default the system clock; the
	// regression tests drive a ManualClock).
	Clock led.Clock
	// Logf receives the loud transitions (default discards).
	Logf func(format string, args ...any)
}

func (c SyncConfig) withDefaults() SyncConfig {
	if c.Mode == "" {
		c.Mode = ReplModeAsync
	}
	if c.Degrade == "" {
		c.Degrade = DegradeAsync
	}
	if c.Grace <= 0 {
		c.Grace = 10 * time.Second
	}
	if c.Clock == nil {
		c.Clock = led.SystemClock()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SyncController is the primary's degradation ladder for synchronous
// shipping: sync → degraded-async (loud metrics and, past the grace
// window, a failed readiness probe) → fenced halt, as configured. Its
// Barrier method is the agent's Durability.ShipBarrier hook — called
// after an occurrence is locally durable and before it is signalled —
// and its Ready method is the agent's readiness gate.
type SyncController struct {
	cfg     SyncConfig
	barrier func() error // waits for the standby's durable ack (Shipper.Barrier)
	met     *Metrics

	mu        sync.Mutex
	degraded  bool      // sync guarantee currently suspended; guarded by mu
	downSince time.Time // first failure of the current outage; guarded by mu
	halted    bool      // DegradeHalt tripped; terminal until reset; guarded by mu
}

// NewSyncController wires the ladder over a barrier — Shipper.Barrier in
// production, a seam in tests. met may be nil.
func NewSyncController(cfg SyncConfig, barrier func() error, met *Metrics) *SyncController {
	return &SyncController{cfg: cfg.withDefaults(), barrier: barrier, met: met}
}

// Sink composes the replication sink a sync primary tees its ShipFS
// into. While the link is healthy every frame is shipped and then
// barriered: the durable append that wrote it returns only once the
// standby has acknowledged everything shipped, so the replica always
// holds what this node completed. A failed ship or ack is reported to
// ObserveShip, which latches the halt under DegradeHalt and degrades the
// link under DegradeAsync. While degraded or halted, frames ship without
// waiting on the standby at all — neither the window admission nor the
// barrier — so an outage costs one ack deadline, not one per frame. The
// degraded link re-enters sync at the first frame that finds the standby
// connected and caught up (every frame shipped acknowledged); a halt
// never does. In async mode the sink is sh.Ship.
func (c *SyncController) Sink(sh *Shipper) Sink {
	if c.cfg.Mode != ReplModeSync {
		return sh.Ship
	}
	return func(f Frame) error {
		if c.Degraded() && (c.Halted() || !sh.caughtUp()) {
			err := sh.shipNoWait(f)
			if err != nil {
				c.noteFailure(err)
			}
			return err
		}
		err := sh.Ship(f)
		if err == nil {
			err = sh.Barrier()
		}
		c.ObserveShip(err)
		return err
	}
}

// Barrier gates one occurrence acknowledgement. In sync mode it blocks
// until the standby's cumulative ack covers everything shipped so far
// (which includes the occurrence's own WAL record — ShipFS ships before
// the agent calls the barrier). nil means acknowledged; ErrReplHalted
// means the occurrence must be withheld (halt policy). Under the async
// degrade policy a failed barrier returns nil — the occurrence proceeds
// un-replicated — and the controller stays degraded until the standby
// has acknowledged everything shipped again (ObserveShip).
func (c *SyncController) Barrier() error {
	if c.cfg.Mode != ReplModeSync {
		return nil
	}
	c.mu.Lock()
	if c.halted {
		c.mu.Unlock()
		return ErrReplHalted
	}
	if c.degraded {
		// Degraded-async: do not stall every occurrence against a dead
		// standby. Healing is ObserveShip's job — the next successful ship
		// (WAL traffic or a heartbeat re-dialing the link) re-enters sync.
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if c.met != nil {
		c.met.ReplSyncBarriers.Inc()
	}
	err := c.barrier()
	if err == nil {
		return nil
	}
	if c.met != nil {
		c.met.ReplSyncTimeouts.Inc()
	}
	c.noteFailure(err)
	if c.cfg.Degrade == DegradeHalt {
		return fmt.Errorf("%w: %v", ErrReplHalted, err)
	}
	return nil
}

// ObserveShip records the outcome of one shipped and barriered frame
// (Sink calls it): a failure latches the halt under DegradeHalt and
// starts (or extends) an outage under DegradeAsync; nil — the standby
// acknowledged everything shipped — ends an outage and re-enters sync.
func (c *SyncController) ObserveShip(err error) {
	if err != nil {
		c.noteFailure(err)
		return
	}
	c.noteSuccess()
}

// noteFailure latches the halt under DegradeHalt; otherwise it enters
// (or extends) the degraded state.
func (c *SyncController) noteFailure(err error) {
	if c.cfg.Degrade == DegradeHalt {
		c.mu.Lock()
		entered := !c.halted
		c.halted = true
		if c.downSince.IsZero() {
			c.downSince = c.cfg.Clock.Now()
		}
		c.mu.Unlock()
		if entered {
			if c.met != nil {
				c.met.ReplDegraded.Set(1)
				c.met.ReplHalted.Set(1)
			}
			c.cfg.Logf("cluster: SYNC REPLICATION HALTED: %v; occurrences stay journaled but unacknowledged until operator action", err)
		}
		return
	}
	c.mu.Lock()
	entered := !c.degraded
	c.degraded = true
	if c.downSince.IsZero() {
		c.downSince = c.cfg.Clock.Now()
	}
	c.mu.Unlock()
	if entered {
		if c.met != nil {
			c.met.ReplDegraded.Set(1)
		}
		c.cfg.Logf("cluster: sync replication DEGRADED to async: %v (zero-RPO guarantee suspended; readiness fails after %v)", err, c.cfg.Grace)
	}
}

// noteSuccess leaves the degraded state (halt is terminal and stays).
func (c *SyncController) noteSuccess() {
	c.mu.Lock()
	if c.halted || !c.degraded {
		c.mu.Unlock()
		return
	}
	c.degraded = false
	c.downSince = time.Time{}
	c.mu.Unlock()
	if c.met != nil {
		c.met.ReplDegraded.Set(0)
	}
	c.cfg.Logf("cluster: sync replication recovered: standby acknowledging again")
}

// Degraded reports whether the sync guarantee is currently suspended.
func (c *SyncController) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded || c.halted
}

// Halted reports whether the halt policy tripped.
func (c *SyncController) Halted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.halted
}

// Ready is the agent's readiness gate (Agent.SetReadinessGate): a halted
// primary is never ready; a degraded one stops being ready once the
// outage outlives the grace window. ok=true otherwise (state is then
// ignored).
func (c *SyncController) Ready() (state string, ok bool) {
	if c.cfg.Mode != ReplModeSync {
		return "", true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.halted {
		return "repl-halted", false
	}
	if c.degraded && c.cfg.Clock.Now().Sub(c.downSince) >= c.cfg.Grace {
		return "repl-degraded", false
	}
	return "", true
}
