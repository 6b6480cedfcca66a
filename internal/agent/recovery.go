package agent

import (
	"fmt"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// The notification path (syb_sendmsg UDP, Figure 15) is best-effort: a
// dropped datagram would silently lose a primitive-event occurrence
// forever. The recovery tracker upgrades it to at-least-once delivery:
//
//   - every primitive event carries a monotonically increasing vNo,
//     bumped by the generated native trigger and persisted both in
//     SysPrimitiveEvent (the authoritative high-water mark) and on every
//     shadow-table row (the occurrence's parameter data);
//   - the agent remembers the last vNo it has seen per event. A
//     notification that jumps past watermark+1 reveals a gap, and the
//     missing occurrences are replayed into the LED immediately — their
//     parameter contexts are intact because the shadow rows are keyed by
//     vNo;
//   - a notification at or below the watermark is a duplicate (UDP
//     duplication, or a reordered datagram whose gap was already filled)
//     and is suppressed, so replays never double-fire rules;
//   - a periodic sweep (Resync) compares each watermark against the
//     authoritative SysPrimitiveEvent.vNo over a privileged connection,
//     catching trailing losses that no later datagram would ever reveal.

// tracker holds the per-event delivery watermarks.
type tracker struct {
	mu   sync.Mutex
	seen map[string]*eventWatermark // keyed by internal event name; guarded by mu
}

// eventWatermark is the last-seen occurrence number of one primitive
// event, with the (table, op) needed to synthesize replayed occurrences.
type eventWatermark struct {
	table string
	op    string
	last  int // guarded by mu (the owning tracker's)
}

// trackEvent registers a primitive event's delivery watermark. Creation
// starts at 0; recovery adopts the authoritative vNo (occurrences from
// before the agent started are not replayed — the LED state they would
// have fed is gone).
func (a *Agent) trackEvent(event, table, op string, last int) {
	a.rec.mu.Lock()
	defer a.rec.mu.Unlock()
	if a.rec.seen == nil {
		a.rec.seen = make(map[string]*eventWatermark)
	}
	a.rec.seen[event] = &eventWatermark{table: table, op: op, last: last}
}

// ingest routes one decoded primitive occurrence through the watermark:
// duplicates are suppressed, gaps are filled by replaying the missing
// occurrences in order, and the watermark advances. Signals happen under
// the tracker lock so the LED sees each event's occurrences in vNo order.
func (a *Agent) ingest(p led.Primitive) {
	a.rec.mu.Lock()
	defer a.rec.mu.Unlock()
	w, tracked := a.rec.seen[p.Event]
	if !tracked {
		// Stray or foreign notification: hand it to the LED untracked
		// (unknown events are ignored there).
		a.met.notifDelivered.Inc()
		a.signal(p)
		return
	}
	if p.VNo <= w.last {
		a.met.notifDuplicate.Inc()
		return
	}
	if p.VNo > w.last+1 {
		a.met.gapsDetected.Inc()
		a.cfg.Logf("agent: notification gap on %s: vNo %d after %d; replaying %d missed occurrence(s)",
			p.Event, p.VNo, w.last, p.VNo-w.last-1)
		for v := w.last + 1; v < p.VNo; v++ {
			a.met.occRecovered.Inc()
			a.durableSignal(led.Primitive{Event: p.Event, Table: w.table, Op: w.op, VNo: v})
		}
	}
	w.last = p.VNo
	a.met.notifDelivered.Inc()
	a.durableSignal(p)
}

// signal feeds one occurrence to the LED and the global-event forwarder.
func (a *Agent) signal(p led.Primitive) {
	a.led.Signal(p)
	if a.cfg.Forward != nil {
		a.cfg.Forward(p)
	}
}

// Resync compares every tracked event's watermark with the authoritative
// vNo in its SysPrimitiveEvent row and replays any occurrences the
// notification path lost. It is the trailing-loss recovery no in-stream
// gap check can provide (when the *last* datagram is dropped, nothing
// later reveals the hole). The periodic sweep calls it on
// Config.ResyncInterval; tests and operators can call it directly.
func (a *Agent) Resync() error {
	a.met.resyncSweeps.Inc()
	start := a.clock.Now()
	defer func() { a.met.resyncSec.Observe(a.clock.Now().Sub(start).Seconds()) }()
	type target struct {
		event, table, op string
		last             int
	}
	a.rec.mu.Lock()
	targets := make([]target, 0, len(a.rec.seen))
	for event, w := range a.rec.seen {
		targets = append(targets, target{event: event, table: w.table, op: w.op, last: w.last})
	}
	a.rec.mu.Unlock()

	var firstErr error
	for _, t := range targets {
		db, _, _, err := splitInternal(t.event)
		if err != nil {
			continue
		}
		auth, err := a.authoritativeVNo(db, t.event)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("agent: resync %s: %w", t.event, err)
			}
			continue
		}
		if auth > t.last {
			a.recoverRange(t.event, auth)
		}
	}
	return firstErr
}

// authoritativeVNo reads the server-side occurrence counter of one event.
func (a *Agent) authoritativeVNo(db, event string) (int, error) {
	rs, err := a.recUp.Exec(fmt.Sprintf(
		"use %s select vNo from %s where eventName = '%s'", db, TabPrimitiveEvent, sqlEscape(event)))
	if err != nil {
		return 0, err
	}
	vno := -1
	forEachRow(rs, func(r sqltypes.Row) {
		n, _ := r[0].AsInt()
		vno = int(n)
	})
	if vno < 0 {
		return 0, fmt.Errorf("no %s row", TabPrimitiveEvent)
	}
	return vno, nil
}

// recoverRange replays occurrences (watermark, auth] for one event. The
// watermark is re-read under the lock so occurrences that arrived (or were
// replayed) since the snapshot are not signalled twice.
func (a *Agent) recoverRange(event string, auth int) {
	a.rec.mu.Lock()
	defer a.rec.mu.Unlock()
	w, ok := a.rec.seen[event]
	if !ok || auth <= w.last {
		return
	}
	a.met.gapsDetected.Inc()
	a.cfg.Logf("agent: resync on %s: authoritative vNo %d beyond watermark %d; replaying %d occurrence(s)",
		event, auth, w.last, auth-w.last)
	for v := w.last + 1; v <= auth; v++ {
		a.met.occRecovered.Inc()
		a.durableSignal(led.Primitive{Event: event, Table: w.table, Op: w.op, VNo: v})
	}
	w.last = auth
}

// resyncLoop is the periodic sweep goroutine.
func (a *Agent) resyncLoop(interval time.Duration) {
	defer a.bgWG.Done()
	//ecavet:allow nowallclock resync sweep cadence is operational, not replayed
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-ticker.C:
			if err := a.Resync(); err != nil {
				a.cfg.Logf("agent: resync sweep: %v", err)
			}
		}
	}
}
