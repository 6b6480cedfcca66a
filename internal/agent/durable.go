package agent

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/storage"
)

// WAL sync policies.
const (
	// WALSyncAlways fsyncs every record before the write is acknowledged —
	// the exactly-once setting: an occurrence is durable before the LED
	// sees it and an action is durable before its completion counts.
	WALSyncAlways = "always"
	// WALSyncNone never fsyncs the journal. A crash can lose the unsynced
	// tail; recovery degrades to at-least-once via the authoritative
	// shadow-table resync.
	WALSyncNone = "none"
)

// Durability configures crash safety. With a Dir or FS set, the agent
// checkpoints its volatile state (LED operator state, delivery
// watermarks, pending actions, dead letters), journals occurrences and
// action completions between checkpoints, and on startup recovers to an
// exactly-once action stream: checkpoint restore, then WAL replay, then
// a shadow-table gap fill up to the authoritative vNo.
type Durability struct {
	// Dir is the checkpoint directory (created on first use).
	Dir string
	// FS overrides Dir with an explicit filesystem — the crash harness
	// injects a faults.CrashDir here.
	FS storage.FS
	// CheckpointInterval is the period of the background checkpoint loop;
	// 0 disables it (checkpoints then happen at Close and explicit
	// Checkpoint calls).
	CheckpointInterval time.Duration
	// WALSync selects the journal sync policy (default WALSyncAlways).
	WALSync string
	// Crash injects named crash points (tests only).
	Crash *faults.CrashSet
	// ShipBarrier, when set, gates occurrence acknowledgement on
	// replication: it is called after the occurrence's WAL record is
	// locally durable (and, via a shipping FS, already handed to the
	// replication stream) and before the occurrence is signalled into the
	// detector. A nil return acknowledges; an error withholds the
	// occurrence — it stays journaled, is counted, and will surface on
	// the standby (or on this node's own restart) instead of here. The
	// cluster layer wires its synchronous-ship barrier in.
	ShipBarrier func() error
}

// durableState is the agent's checkpoint/WAL machinery.
type durableState struct {
	a        *Agent
	fs       storage.FS
	crash    *faults.CrashSet
	syncMode string
	barrier  func() error // Durability.ShipBarrier; nil when unreplicated

	mu        sync.Mutex
	epoch     uint64                  // guarded by mu
	wal       storage.File            // guarded by mu
	walSeq    uint64                  // records appended (monotonic across rotations); guarded by mu
	walSynced uint64                  // records known durable; guarded by mu
	ledger    map[string]*ledgerEntry // guarded by mu
	ledgerSeq int                     // guarded by mu

	// replaying gates the rule-action path: during WAL replay detections
	// are collected into the ledger instead of executed.
	replaying atomic.Bool

	met      recoveryMetrics
	lastCkpt atomic.Int64 // UnixNano of the last completed checkpoint
}

func newDurableState(a *Agent, cfg Durability) *durableState {
	d := &durableState{
		a:        a,
		fs:       cfg.FS,
		crash:    cfg.Crash,
		syncMode: cfg.WALSync,
		barrier:  cfg.ShipBarrier,
		ledger:   make(map[string]*ledgerEntry),
	}
	if d.fs == nil {
		d.fs = storage.OSDir{Dir: cfg.Dir}
	}
	if d.syncMode == "" {
		d.syncMode = WALSyncAlways
	}
	d.initRecoveryMetrics(a.met.reg)
	return d
}

func ckptName(epoch uint64) string { return fmt.Sprintf("ckpt-%d", epoch) }
func walName(epoch uint64) string  { return fmt.Sprintf("wal-%d", epoch) }

// parseGenName extracts the epoch from a ckpt-N / wal-N file name.
func parseGenName(name string) (prefix string, epoch uint64, ok bool) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || strings.HasSuffix(name, ".tmp") {
		return "", 0, false
	}
	n, err := strconv.ParseUint(name[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return name[:i], n, true
}

// generations is one listing of a durability directory.
type generations struct {
	ckpts    []uint64 // checkpoint epochs, newest first
	wals     []uint64 // journal epochs, oldest first
	maxEpoch uint64   // the highest epoch in any file name
}

// listGenerations lists the checkpoint and journal generations in fs.
func listGenerations(fs storage.FS) (generations, error) {
	var g generations
	names, err := fs.List()
	if err != nil {
		return g, err
	}
	for _, name := range names {
		prefix, e, ok := parseGenName(name)
		if !ok {
			continue
		}
		g.maxEpoch = max(g.maxEpoch, e)
		switch prefix {
		case "ckpt":
			g.ckpts = append(g.ckpts, e)
		case "wal":
			g.wals = append(g.wals, e)
		}
	}
	sort.Slice(g.ckpts, func(i, j int) bool { return g.ckpts[i] > g.ckpts[j] })
	sort.Slice(g.wals, func(i, j int) bool { return g.wals[i] < g.wals[j] })
	return g, nil
}

// newestCheckpoint decodes the newest checkpoint that reads and decodes
// with its own epoch, telling skip why each newer one was passed over. It
// returns nil and 0 when no checkpoint is usable.
func (g generations) newestCheckpoint(fs storage.FS, skip func(epoch uint64, err error)) (*checkpointData, uint64) {
	for _, e := range g.ckpts {
		data, err := fs.ReadFile(ckptName(e))
		if err != nil {
			skip(e, err)
			continue
		}
		c, embedded, err := decodeCheckpoint(data)
		if err == nil && embedded != e {
			err = fmt.Errorf("embedded epoch %d under name %s", embedded, ckptName(e))
		}
		if err != nil {
			skip(e, err)
			continue
		}
		return c, e
	}
	return nil, 0
}

// loadLatest scans the directory and decodes the newest valid
// checkpoint. It returns the decoded data (nil when no epoch is usable),
// that checkpoint's epoch, and the highest epoch number present in any
// file name — the floor for the next generation.
func (d *durableState) loadLatest() (*checkpointData, uint64, uint64) {
	g, err := listGenerations(d.fs)
	if err != nil {
		d.a.cfg.Logf("agent: checkpoint scan: %v", err)
		return nil, 0, 0
	}
	c, e := g.newestCheckpoint(d.fs, func(e uint64, err error) {
		d.a.cfg.Logf("agent: checkpoint %d unusable, trying older: %v", e, err)
	})
	return c, e, g.maxEpoch
}

// readWAL loads and parses one epoch's journal. A missing file is an
// empty journal (the crash may have hit between checkpoint publish and
// journal creation).
func (d *durableState) readWAL(epoch uint64) []walRecord {
	data, err := d.fs.ReadFile(walName(epoch))
	if err != nil {
		return nil
	}
	embedded, recs, torn, err := parseWAL(data)
	if err != nil {
		d.a.cfg.Logf("agent: journal %d unreadable: %v", epoch, err)
		return nil
	}
	if embedded != epoch && len(recs) > 0 {
		d.a.cfg.Logf("agent: journal %s carries epoch %d; ignoring", walName(epoch), embedded)
		return nil
	}
	if torn {
		d.a.cfg.Logf("agent: journal %d has a torn tail after %d record(s); shadow-table resync covers the rest", epoch, len(recs))
	}
	return recs
}

// appendLocked frames and writes one record to the current journal. In
// always mode the record is fsynced before return. Caller holds d.mu.
func (d *durableState) appendLocked(r walRecord) {
	if d.wal == nil {
		return
	}
	frame := encodeWALRecord(r)
	if _, err := d.wal.Write(frame); err != nil {
		d.a.cfg.Logf("agent: journal append: %v", err)
		return
	}
	d.walSeq++
	d.met.walRecords.Inc()
	d.met.walBytes.Add(uint64(len(frame)))
	if d.syncMode == WALSyncAlways {
		d.syncLocked()
	}
}

// syncLocked flushes the journal up to the last appended record. Caller
// holds d.mu.
func (d *durableState) syncLocked() {
	if d.wal == nil || d.walSynced >= d.walSeq {
		return
	}
	if err := d.wal.Sync(); err != nil {
		d.a.cfg.Logf("agent: journal sync: %v", err)
		return
	}
	d.walSynced = d.walSeq
	d.met.walSyncs.Inc()
}

// appendOcc journals one accepted occurrence, honoring the sync policy,
// before the caller signals it into the LED. Called with a.rec.mu held,
// which serializes occurrence records in delivery order. The lock is
// released by defer because the append can unwind with a simulated-crash
// panic (the cluster tee's repl.* crash points fire inside the write
// path) and a dead incarnation must not leave d.mu held against its own
// still-draining action goroutines.
func (d *durableState) appendOcc(p led.Primitive) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.appendLocked(walRecord{
		kind: walOccKind, event: p.Event, table: p.Table, op: p.Op, vno: p.VNo, at: p.At,
	})
}

// recovered reports whether startup recovery completed and the journal
// is open — the precondition for cutting further checkpoints.
func (d *durableState) recovered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal != nil
}

// closeWAL flushes and closes the journal (final step of Close).
func (d *durableState) closeWAL() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return
	}
	d.syncLocked()
	if err := d.wal.Close(); err != nil {
		d.a.cfg.Logf("agent: closing journal: %v", err)
	}
	d.wal = nil
}

// Checkpoint cuts a new durable generation: it freezes ingest and the
// detector, writes epoch+1's checkpoint (write .tmp → fsync → rename →
// dir fsync), rotates the journal, prunes the previous generation and
// drops done ledger entries. After a successful cut the previous
// checkpoint and journal are no longer needed for recovery.
func (a *Agent) Checkpoint() error {
	d := a.dur
	if d == nil {
		return nil
	}
	start := a.clock.Now()
	d.crash.Hit("ckpt.begin")
	a.rec.mu.Lock()
	defer a.rec.mu.Unlock()
	wms := make(map[string]ckptWatermark, len(a.rec.seen))
	for ev, w := range a.rec.seen {
		wms[ev] = ckptWatermark{Event: ev, Table: w.table, Op: w.op, Last: w.last}
	}
	snap := a.led.SnapshotState()

	d.mu.Lock()
	defer d.mu.Unlock()
	c := &checkpointData{Watermarks: wms, LED: snap}
	for _, e := range d.pendingLocked() {
		c.Pending = append(c.Pending, ckptPending{Key: e.key, Rule: e.rule, Occ: led.OccToState(e.occ)})
	}
	for _, r := range a.dlq.snapshot() {
		cd := ckptDead{Rule: r.Rule, Event: r.Event, Messages: r.Messages}
		if r.Occ != nil {
			cd.HasOcc = true
			cd.Occ = led.OccToState(r.Occ)
		}
		if r.Err != nil {
			cd.Err = r.Err.Error()
		}
		c.DLQ = append(c.DLQ, cd)
	}

	newEpoch := d.epoch + 1
	img, err := encodeCheckpoint(newEpoch, c)
	if err != nil {
		return fmt.Errorf("agent: encoding checkpoint: %w", err)
	}
	tmp := ckptName(newEpoch) + ".tmp"
	f, err := d.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("agent: checkpoint: %w", err)
	}
	if _, err := f.Write(img); err != nil {
		return errors.Join(fmt.Errorf("agent: checkpoint: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("agent: checkpoint: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("agent: checkpoint: %w", err)
	}
	d.crash.Hit("ckpt.beforeRename")
	if err := d.fs.Rename(tmp, ckptName(newEpoch)); err != nil {
		return fmt.Errorf("agent: publishing checkpoint: %w", err)
	}
	if err := d.fs.SyncDir(); err != nil {
		return fmt.Errorf("agent: publishing checkpoint: %w", err)
	}
	d.crash.Hit("ckpt.afterRename")

	// Rotate the journal. Synced-through state carries over: everything in
	// the old journal is superseded by the checkpoint just published.
	d.syncLocked()
	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			d.a.cfg.Logf("agent: closing journal: %v", err)
		}
	}
	d.wal = nil
	wf, err := d.fs.Create(walName(newEpoch))
	if err != nil {
		return fmt.Errorf("agent: opening journal: %w", err)
	}
	if _, err := wf.Write(walHeader(newEpoch)); err != nil {
		return errors.Join(fmt.Errorf("agent: opening journal: %w", err), wf.Close())
	}
	if d.syncMode != WALSyncNone {
		if err := wf.Sync(); err != nil {
			return errors.Join(fmt.Errorf("agent: opening journal: %w", err), wf.Close())
		}
	}
	d.wal = wf

	// Prune every older generation and stray tmp files.
	if names, err := d.fs.List(); err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") {
				_ = d.fs.Remove(name)
				continue
			}
			prefix, e, ok := parseGenName(name)
			if ok && (prefix == "ckpt" || prefix == "wal") && e < newEpoch {
				_ = d.fs.Remove(name)
			}
		}
		// Pruning is best-effort: the new generation is already durable.
		if err := d.fs.SyncDir(); err != nil {
			d.a.cfg.Logf("agent: syncing pruned checkpoint directory: %v", err)
		}
	}
	for k, e := range d.ledger {
		if e.done {
			delete(d.ledger, k)
		}
	}
	d.epoch = newEpoch
	d.met.checkpoints.Inc()
	d.met.ckptBytes.Set(int64(len(img)))
	d.met.ckptSec.Observe(a.clock.Now().Sub(start).Seconds())
	d.lastCkpt.Store(a.clock.Now().UnixNano())
	return nil
}

// checkpointLoop cuts checkpoints on a fixed period.
func (a *Agent) checkpointLoop(interval time.Duration) {
	defer a.bgWG.Done()
	defer faults.Recover()
	//ecavet:allow nowallclock checkpoint cadence is operational, not replayed
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-t.C:
			if err := a.Checkpoint(); err != nil {
				a.cfg.Logf("agent: periodic checkpoint: %v", err)
			}
		}
	}
}

// recoverDurable rebuilds the crash-time state. recover() has already
// reconstructed definitions from the system tables and seeded the
// watermarks at the authoritative vNo; this routine rewinds them to the
// checkpoint's cut, replays the journal forward, cuts a fresh
// generation, resumes the provably unfinished actions exactly once, and
// finally gap-fills from the shadow tables anything the journal could
// not prove delivered.
func (a *Agent) recoverDurable() error {
	d := a.dur
	start := a.clock.Now()
	ck, ckEpoch, maxEpoch := d.loadLatest()
	d.mu.Lock()
	d.epoch = maxEpoch
	d.mu.Unlock()
	if ck != nil {
		if err := a.led.RestoreState(ck.LED); err != nil {
			// RestoreState validates before applying, so the detector is
			// untouched; authoritative watermarks stand and this becomes a
			// cold start.
			a.cfg.Logf("agent: checkpoint %d does not match the rebuilt event graph (%v); cold start", ckEpoch, err)
		} else {
			a.rec.mu.Lock()
			for ev, w := range a.rec.seen {
				if cw, ok := ck.Watermarks[ev]; ok {
					w.last = cw.Last
				} else {
					// Event created after the cut: everything it produced is
					// in the journal or the shadow tables.
					w.last = 0
				}
			}
			a.rec.mu.Unlock()
			for _, p := range ck.Pending {
				d.notePending(p.Rule, p.Key, led.OccFromState(p.Occ))
			}
			for _, f := range ck.LED.Outstanding {
				occ := led.OccFromState(f.Occ)
				d.notePending(f.Rule, actionKey(f.Rule, occ), occ)
			}
			for _, r := range ck.DLQ {
				res := ActionResult{Rule: r.Rule, Event: r.Event, Messages: r.Messages}
				if r.HasOcc {
					res.Occ = led.OccFromState(r.Occ)
				}
				if r.Err != "" {
					res.Err = errors.New(r.Err)
				}
				a.dlq.push(res)
			}

			d.replaying.Store(true)
			for _, r := range d.readWAL(ckEpoch) {
				switch r.kind {
				case walOccKind:
					// Logical timers due before this occurrence fire first,
					// reproducing the live interleaving of periodic ticks,
					// PLUS emissions and temporal events with the stream.
					a.led.FireTimersUpTo(r.at)
					dup := false
					a.rec.mu.Lock()
					if w, ok := a.rec.seen[r.event]; ok {
						if r.vno <= w.last {
							dup = true
						} else {
							w.last = r.vno
						}
					}
					a.rec.mu.Unlock()
					if !dup {
						a.signal(led.Primitive{Event: r.event, Table: r.table, Op: r.op, VNo: r.vno, At: r.at})
						d.met.replayed.Inc()
					}
				case walDoneKind:
					d.markDoneLocal(r.key)
					d.met.replayed.Inc()
				}
			}
			// Logical timers the restored state already holds due (a window
			// boundary, a P* tick) fire now, while the done marks replayed
			// above still cover their actions and before the resync below
			// adds later occurrences: the recovery checkpoint prunes those
			// marks, and a firing after it would run its action twice.
			a.led.FireTimersUpTo(a.led.Now())
			a.led.Wait() // detached replay detections must land in the ledger
			d.replaying.Store(false)
		}
	}

	// Cut a fresh generation before any new journal traffic: the restored
	// and replayed state (including still-pending actions) becomes the new
	// checkpoint, and the new journal starts empty.
	if err := a.Checkpoint(); err != nil {
		return fmt.Errorf("agent: recovery checkpoint: %w", err)
	}
	a.resumePending()
	// Gap fill: anything the server committed that neither checkpoint nor
	// journal saw (unsynced tail, crash before the WAL append) is replayed
	// from the shadow tables up to the authoritative vNo.
	if err := a.Resync(); err != nil {
		a.cfg.Logf("agent: recovery resync: %v", err)
	}
	d.met.recoverySec.Observe(a.clock.Now().Sub(start).Seconds())
	return nil
}

// resumePending launches every ledger entry the journal could not prove
// done, in original detection order, through the normal FIFO action
// path.
func (a *Agent) resumePending() {
	d := a.dur
	d.mu.Lock()
	entries := d.pendingLocked()
	live := entries[:0]
	for _, e := range entries {
		if !e.launched {
			e.launched = true
			live = append(live, e)
		}
	}
	d.mu.Unlock()
	for _, e := range live {
		a.mu.Lock()
		info := a.triggers[e.rule]
		a.mu.Unlock()
		if info == nil {
			a.cfg.Logf("agent: dropping recovered action for vanished trigger %s", e.rule)
			d.markDone(e.key)
			continue
		}
		d.met.resumed.Inc()
		a.actionq.enqueue(actionJob{info: info, occ: e.occ, enqueued: a.clock.Now(), key: e.key})
	}
}

// durableSignal journals a tracked occurrence (stamping its detection
// time first, so replay reproduces identical occurrences and action
// keys) and then signals it. With a ShipBarrier wired, the signal — and
// therefore any action launch and the Forward acknowledgement — waits
// for the standby's durable ack first: everything downstream of this
// point is guaranteed recoverable from the replica, which is the RPO=0
// contract the sync chaos suite asserts. A failed barrier withholds the
// occurrence: it is already journaled locally (and usually already on
// the standby, just unconfirmed), so replay or the shadow-table resync
// will surface it exactly once on whichever node recovers. Callers hold
// a.rec.mu.
func (a *Agent) durableSignal(p led.Primitive) {
	if d := a.dur; d != nil {
		if p.At.IsZero() {
			p.At = a.led.Now()
		}
		d.crash.Hit("ingest.preWAL")
		d.appendOcc(p)
		d.crash.Hit("ingest.postWAL")
		if d.barrier != nil {
			if err := d.barrier(); err != nil {
				d.met.withheld.Inc()
				a.cfg.Logf("agent: occurrence %s vno %d withheld: replication barrier: %v", p.Event, p.VNo, err)
				return
			}
		}
	}
	a.signal(p)
}

// waitReady blocks callers of the delivery surface until recovery has
// seeded watermarks and replayed the journal — before that, a live
// notification would be judged against uninitialized state.
func (a *Agent) waitReady() {
	select {
	case <-a.ready:
	case <-a.stopCh:
	}
}
