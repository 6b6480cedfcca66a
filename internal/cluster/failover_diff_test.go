package cluster

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/scenario"
)

// The failover proofs: the scenario workload (internal/scenario) against
// a two-node pair whose primary is killed at a named crash point — the
// agent's seven durability points plus the four mid-replication windows
// ShipFS exposes. The standby detects the silence on a deterministic
// clock, promotes after the configured run of missed heartbeats, and
// finishes the workload; it must reproduce the crash-free oracle's
// occurrence set and action multiset. The two suites differ only in the
// replication sink: an in-process Applier (TestFailoverDifferential), or
// a loopback Shipper whose ack barrier gates every durable write, with a
// SyncController halting on failure (TestSyncShipRPOZero). Sync mode also
// asserts RPO=0 on the raw replica files before promotion, replay or
// resync could mask a loss.

const (
	hbInterval = 500 * time.Millisecond
	hbMisses   = 3
	// promoteBound bounds crash-to-promotion in control time: the miss
	// hysteresis plus one interval of slack. Asserted on the manual clock,
	// so it is exact, not a race against the scheduler.
	promoteBound = (hbMisses + 1) * hbInterval
)

// chaosSeed reads CHAOS_SEED (default 0): the value offsets every kill's
// seed, and a failing cell prints the seed to replay with.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	raw := os.Getenv("CHAOS_SEED")
	if raw == "" {
		return 0
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer: %v", raw, err)
	}
	return n
}

// pair is one cluster lifetime: the engine, the recorders, both durable
// directories and the control clock survive the primary's death; the data
// clock is re-created at the promotion instant like a single-node restart.
type pair struct {
	*scenario.Run
	sync bool

	priFS, stbFS *faults.CrashDir
	ctrlClock    *led.ManualClock // heartbeats + failure detection

	auth       *EpochRegistry
	metA, metB *Metrics
	applier    *Applier
	hb         *Heartbeater
	monitor    *Monitor

	// sync mode only
	shipper    *Shipper
	ctl        *SyncController
	stopListen func()
}

func newPair(t *testing.T, k scenario.Kill, sync bool) *pair {
	t.Helper()
	p := &pair{
		Run:       scenario.NewRun(t, k.Arm()),
		sync:      sync,
		priFS:     faults.NewCrashDir(k.Seed),
		stbFS:     faults.NewCrashDir(k.Seed + 1000),
		ctrlClock: led.NewManualClock(scenario.Base),
		auth:      NewEpochRegistry(),
		metA:      NewMetrics(obs.NewRegistry()),
		metB:      NewMetrics(obs.NewRegistry()),
	}
	p.startPrimary()
	return p
}

// startPrimary boots node A: a fenced upstream, a ShipFS tee into the
// standby's applier, heartbeats and failure detection on the control
// clock. Heartbeats reach the applier directly in both modes, so failure
// detection stays exactly on the manual control clock.
func (p *pair) startPrimary() {
	p.T.Helper()
	tokA := p.token("A")
	p.metA.SetRole(RolePrimary)
	p.metB.SetRole(RoleStandby)
	p.applier = NewApplier(p.stbFS, p.metB)
	dur := &agent.Durability{WALSync: agent.WALSyncAlways, Crash: p.Crash}
	sink := p.applier.Apply
	var ship *ShipFS
	if p.sync {
		addr, stop, err := ListenStandby("127.0.0.1:0", p.applier)
		if err != nil {
			p.T.Fatalf("standby listener: %v", err)
		}
		p.stopListen = stop
		p.shipper = NewShipper(ShipperConfig{
			Addr:       addr,
			Node:       "A",
			Tok:        tokA,
			Snapshot:   func() ([]Frame, error) { return ship.SnapshotFrames() },
			SyncWindow: 4,
			AckTimeout: 10 * time.Second, // loopback acks are fast; a trip here is a real bug
		}, p.metA)
		p.ctl = NewSyncController(SyncConfig{Mode: ReplModeSync, Degrade: DegradeHalt, Clock: p.ctrlClock},
			p.shipper.Barrier, p.metA)
		// Every WAL frame waits for the standby's durable ack, so the
		// replica holds everything the primary completed — occurrence
		// records and action-done records alike.
		sink = func(f Frame) error {
			err := p.shipper.Ship(f)
			if err == nil {
				err = p.shipper.Barrier()
			}
			p.ctl.ObserveShip(err)
			return err
		}
		dur.ShipBarrier = p.ctl.Barrier
	}
	ship = NewShipFS(p.priFS, sink, p.Crash, p.metA)
	dur.FS = ship
	p.Boot(FencedDialer(p.Dialer(), p.auth, tokA, p.metA), dur)
	if p.sync {
		p.Agent.SetReadinessGate(p.ctl.Ready)
	}

	p.hb = NewHeartbeater(p.ctrlClock, hbInterval, tokA, p.applier.Apply, p.metA)
	p.monitor = NewMonitor(MonitorConfig{Clock: p.ctrlClock, Interval: hbInterval, Misses: hbMisses}, p.metB, nil)
	p.applier.OnHeartbeat = p.monitor.Beat
	p.monitor.Start()
	p.hb.Start()
}

func (p *pair) token(node string) *Token {
	epoch, err := p.auth.Acquire(node)
	if err != nil {
		p.T.Fatal(err)
	}
	tok := &Token{}
	tok.Set(epoch)
	return tok
}

// failover is the kill-and-promote sequence: the dead primary's pending
// work quiesces (pre-crash history), its directory drops unsynced writes,
// its beacon dies with it, and control time advances interval by interval
// until the monitor promotes — within the deterministic deadline. The
// standby then boots a full agent over the replica directory under a
// fresh fencing epoch.
func (p *pair) failover() {
	p.T.Helper()
	p.Agent.WaitActions()
	acked := p.Occs.Snapshot() // everything acknowledged before the kill
	p.priFS.Crash()
	p.hb.Stop()
	if p.sync {
		p.shipper.Close()
	}

	crashAt := p.ctrlClock.Now()
	for i := 0; i < hbMisses+2 && !p.monitor.Promoted(); i++ {
		p.ctrlClock.Advance(hbInterval)
	}
	if !p.monitor.Promoted() {
		p.T.Fatalf("standby did not promote after %v of silence", p.ctrlClock.Now().Sub(crashAt))
	}
	if took := p.ctrlClock.Now().Sub(crashAt); took > promoteBound {
		p.T.Errorf("promotion took %v of control time, deadline %v", took, promoteBound)
	}
	p.monitor.Stop()
	if p.sync {
		p.stopListen()
	}
	if err := p.applier.Close(); err != nil {
		p.T.Fatalf("closing replica handles: %v", err)
	}
	if p.sync {
		p.checkRPOZero(acked)
	}

	tokB := p.token("B")
	p.metB.SetRole(RolePromoting)
	p.metB.Promotions.Inc()
	p.Boot(FencedDialer(p.Dialer(), p.auth, tokB, p.metB),
		&agent.Durability{FS: p.stbFS, WALSync: agent.WALSyncAlways})
	p.metB.SetRole(RolePrimary)
}

// checkRPOZero inspects the replica directory as files — the promoted
// agent has not booted, nothing has replayed or resynced: every
// occurrence acknowledged under the sync barrier must be durable there.
// Keys are the recorder's qualified "db.owner.event|vNo" of primitives;
// composite firings are derived state, re-detected from them.
func (p *pair) checkRPOZero(acked []string) {
	wm, _, err := agent.DurableOccurrences(p.stbFS)
	if err != nil {
		p.T.Fatalf("inspecting replica directory: %v", err)
	}
	for _, key := range acked {
		ev, n, _ := strings.Cut(key, "|")
		vno, err := strconv.Atoi(n)
		if err != nil {
			p.T.Fatalf("bad occurrence key %q", key)
		}
		if vno > wm[ev] {
			p.T.Errorf("RPO VIOLATION: occurrence %s vno %d was acknowledged but the standby's durable watermark is %d",
				ev, vno, wm[ev])
		}
	}
}

func (p *pair) close() {
	p.Agent.Close()
	if !p.monitor.Promoted() {
		// The crash never tripped: the old primary's side is still live.
		p.hb.Stop()
		p.monitor.Stop()
		if p.sync {
			p.shipper.Close()
			p.stopListen()
		}
		p.applier.Close()
	}
}

// playPair runs c's oracle once and one pair per kill.
func playPair(t *testing.T, c scenario.Cell, sync bool) {
	off := chaosSeed(t)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with: CHAOS_SEED=%d make cluster-chaos", off)
		}
	})
	want := scenario.Oracle(t, c.Op, c.Ctx)
	for _, k := range c.Kills {
		k.Seed += off
		p := newPair(t, k, sync)
		p.Play(c.Op, c.Ctx, p.failover)
		p.Check(k, want)
		if p.metB.Role() != RolePrimary {
			t.Errorf("%s: standby role = %q after failover", k, p.metB.Role())
		}
		if sync && p.metA.ReplSyncBarriers.Value() == 0 {
			t.Errorf("%s: no sync barriers were taken — the mode was not actually exercised", k)
		}
		if sync && p.ctl.Halted() {
			t.Errorf("%s: sync controller halted — a barrier failed on a healthy link", k)
		}
		p.close()
	}
}

func TestFailoverDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("failover differential matrix is long")
	}
	for _, c := range scenario.Cells(scenario.Crashes, 3) {
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			playPair(t, c, false)
		})
	}
}

// syncCells kill the sync pair once at each crash point.
var syncCells = []scenario.Cell{
	scenario.One("not", "RECENT", "ingest.preWAL", 7),
	scenario.One("or", "CHRONICLE", "ingest.postWAL", 60),
	scenario.One("periodic-star", "CONTINUOUS", "action.preExec", 113),
	scenario.One("aperiodic", "CUMULATIVE", "action.postDone", 166),
	scenario.One("and", "RECENT", "ckpt.beforeRename", 219),
	scenario.One("plus", "CHRONICLE", "ckpt.afterRename", 272),
	scenario.One("aperiodic-star", "CONTINUOUS", "ckpt.begin", 325),
	scenario.One("seq", "CUMULATIVE", "repl.preShip.occ", 378),
	scenario.One("temporal", "RECENT", "repl.postShip.occ", 431),
	scenario.One("periodic", "CHRONICLE", "repl.preShip.ckpt", 484),
	scenario.One("not", "CONTINUOUS", "repl.postShip.ckpt", 537),
}

// TestSyncShipRPOZero runs one sync-mode cell per crash point. Each
// asserts RPO=0 on the raw replica (inside failover), the oracle's exact
// occurrence set and the oracle's exact action multiset.
func TestSyncShipRPOZero(t *testing.T) {
	if testing.Short() {
		t.Skip("sync-ship chaos matrix is long")
	}
	for _, c := range syncCells {
		t.Run(c.Kills[0].Point+"/"+c.Name(), func(t *testing.T) {
			t.Parallel()
			playPair(t, c, true)
		})
	}
}
