package led

import "time"

// The logical timer registry gives every armed operator timer (periodic
// ticks, PLUS delays, absolute-time events) a durable identity: a logical
// deadline derived from occurrence data, not from the wall clock at arm
// time. The clock's AfterFunc is only the wake-up mechanism; the deadline
// the callback observes is the registered one. That buys two things:
//
//   - deterministic timestamps: a tick re-fired after a crash restore
//     carries the same At as the tick the lost process would have emitted,
//     so downstream action dedup keys match;
//   - replayable ordering: recovery can call FireTimersUpTo to fire due
//     timers synchronously, interleaved with journal replay, in exactly
//     the (deadline, arm-order) sequence ManualClock.Advance would have
//     used.
type logTimer struct {
	id uint64
	at time.Time
	fn func(at time.Time)
	// clockCancel stops the backing clock timer; set under timMu right
	// after arming (a timer that fires in that gap just finds itself
	// already popped).
	clockCancel func()
}

// armTimer registers a logical timer and arms the backing clock. fn runs
// as one graph propagation (via dispatch) with the logical deadline,
// whether the clock or FireTimersUpTo fires it. The returned cancel is
// idempotent.
func (l *LED) armTimer(at time.Time, fn func(at time.Time)) func() {
	l.timMu.Lock()
	l.timNext++
	id := l.timNext
	t := &logTimer{id: id, at: at, fn: fn}
	if l.timers == nil {
		l.timers = make(map[uint64]*logTimer)
	}
	l.timers[id] = t
	l.timMu.Unlock()

	d := at.Sub(l.clock.Now())
	if d < 0 {
		d = 0
	}
	cc := l.clock.AfterFunc(d, func() { l.fireLogical(id) })
	l.timMu.Lock()
	if _, live := l.timers[id]; live {
		t.clockCancel = cc
	} else {
		// Fired (a zero-delay real-clock timer) or cancelled before we
		// could record the clock handle; release it.
		cc()
	}
	l.timMu.Unlock()

	return func() {
		l.timMu.Lock()
		lt, live := l.timers[id]
		var stop func()
		if live {
			delete(l.timers, id)
			stop = lt.clockCancel
		}
		l.timMu.Unlock()
		if stop != nil {
			stop()
		}
	}
}

// fireLogical is the clock-driven firing path: pop the timer (losing the
// race to FireTimersUpTo or cancel means doing nothing) and dispatch.
func (l *LED) fireLogical(id uint64) {
	l.timMu.Lock()
	t, ok := l.timers[id]
	if ok {
		delete(l.timers, id)
	}
	l.timMu.Unlock()
	if !ok {
		return
	}
	l.dispatch(func() { t.fn(t.at) })
}

// FireTimersUpTo synchronously fires every armed timer with deadline at or
// before t, in (deadline, arm-order) order — the same order a ManualClock
// Advance would use. Recovery interleaves it with journal replay so timer
// ticks land between re-signalled occurrences exactly where they fell in
// the crashed run. Must not be called from inside detection.
func (l *LED) FireTimersUpTo(t time.Time) {
	for {
		l.timMu.Lock()
		var next *logTimer
		for _, lt := range l.timers {
			if lt.at.After(t) {
				continue
			}
			if next == nil || lt.at.Before(next.at) ||
				(lt.at.Equal(next.at) && lt.id < next.id) {
				next = lt
			}
		}
		if next != nil {
			delete(l.timers, next.id)
		}
		l.timMu.Unlock()
		if next == nil {
			return
		}
		if next.clockCancel != nil {
			next.clockCancel()
		}
		l.dispatch(func() { next.fn(next.at) })
	}
}

// PendingLogicalTimers reports how many logical timers are armed.
func (l *LED) PendingLogicalTimers() int {
	l.timMu.Lock()
	defer l.timMu.Unlock()
	return len(l.timers)
}
