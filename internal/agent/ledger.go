package agent

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"github.com/activedb/ecaagent/internal/led"
)

// The action ledger is the exactly-once half of the durability story. A
// rule firing is keyed by its identity — rule name plus the canonical
// occurrence, including the detection timestamp and every constituent's
// (event, op, vNo, at) — which is reproducible bit-for-bit by replaying
// the same occurrence stream. The ledger tracks each key through three
// facts:
//
//	pending  — detection handed the firing off; the action must run
//	launched — this process has it on its action queue (volatile)
//	done     — the procedure call returned (journaled in the WAL)
//
// Checkpoints persist the pending set; the WAL persists done marks.
// After a crash, recovery re-runs exactly the pending keys the journal
// cannot prove done — never a done one twice, never a detected one zero
// times.

// ledgerEntry is one tracked rule firing.
type ledgerEntry struct {
	key      string
	rule     string
	occ      *led.Occ
	seq      int // insertion order, for deterministic resume
	done     bool
	launched bool
}

// actionKey derives the stable identity of one rule firing.
func actionKey(rule string, occ *led.Occ) string {
	h := fnv.New64a()
	io.WriteString(h, rule)
	io.WriteString(h, "|")
	io.WriteString(h, occ.Event)
	fmt.Fprintf(h, "|%d|%d", occ.Context, occ.At.UnixNano())
	for _, c := range occ.Constituents {
		fmt.Fprintf(h, "|%s:%s:%s:%d:%d", c.Event, c.Table, c.Op, c.VNo, c.At.UnixNano())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// begin claims a firing for execution in this process. It reports false
// when the key already ran (done) or is already claimed — the caller
// must then not spawn the action.
func (d *durableState) begin(rule, key string, occ *led.Occ) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.ledger[key]
	if e == nil {
		d.ledgerSeq++
		d.ledger[key] = &ledgerEntry{key: key, rule: rule, occ: occ, seq: d.ledgerSeq, launched: true}
		return true
	}
	if e.done || e.launched {
		return false
	}
	e.launched = true
	return true
}

// notePending records a firing without claiming it — the replay path and
// checkpoint loading use it to accumulate work that resumePending later
// executes (unless a done mark already covers it).
func (d *durableState) notePending(rule, key string, occ *led.Occ) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ledger[key] != nil {
		return
	}
	d.ledgerSeq++
	d.ledger[key] = &ledgerEntry{key: key, rule: rule, occ: occ, seq: d.ledgerSeq}
}

// markDone journals a completed action and marks its ledger entry. The
// WAL append and the in-memory mark happen under one lock hold, so a
// concurrent checkpoint cut serializes either before both (the entry is
// persisted pending, and the new journal's done record resolves it) or
// after both (the entry is pruned). In group mode the caller then waits
// for the batched fsync outside the lock. The hold is defer-scoped
// because the append can unwind with a simulated-crash panic (cluster
// repl.* crash points live inside the write path).
func (d *durableState) markDone(key string) {
	var seq uint64
	func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		seq = d.appendLocked(walRecord{kind: walDoneKind, key: key})
		if e := d.ledger[key]; e != nil {
			e.done = true
		}
	}()
	if d.syncMode == WALSyncGroup {
		d.waitSynced(seq)
	}
}

// markDoneLocal applies a replayed done record: no journaling, just the
// ledger fact. An unknown key still gets a done entry — its occurrence
// record may arrive later in the same replay and must not re-arm it.
func (d *durableState) markDoneLocal(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.ledger[key]; e != nil {
		e.done = true
		return
	}
	d.ledgerSeq++
	d.ledger[key] = &ledgerEntry{key: key, seq: d.ledgerSeq, done: true, launched: true}
}

// pendingLocked snapshots the not-yet-done entries in insertion order.
// Caller holds d.mu.
func (d *durableState) pendingLocked() []*ledgerEntry {
	var out []*ledgerEntry
	for _, e := range d.ledger {
		if !e.done {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
