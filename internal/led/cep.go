package led

import (
	"fmt"
	"time"

	"github.com/activedb/ecaagent/internal/snoop"
)

// CEP operators: sliding/tumbling windows, windowed aggregates, and
// Allen-style interval relations (DESIGN.md §12).
//
// Window semantics. A window node reports at boundaries of a fixed grid:
// every multiple of the slide on the Unix epoch. At a boundary T the
// window's content is the child occurrences with At in the half-open
// interval [T-size, T). The exclusive upper bound makes the relative
// ordering of a boundary timer and a same-instant child occurrence
// irrelevant — an occurrence at exactly T belongs to the next window
// either way — which is what lets a restored detector and the live one
// agree without replaying intra-instant scheduling.
//
// The ring buffer holds exactly the child occurrences still eligible for
// some future boundary; the boundary timer is armed iff the ring is
// non-empty (lazy arming). At a boundary, occurrences that cannot appear
// in any later window — At < T+slide-size — are evicted.

// validateWindow rejects window geometries the detector cannot run. The
// parser already enforces this; re-checking here keeps programmatically
// built expressions honest.
func validateWindow(size, slide time.Duration) error {
	if size <= 0 {
		return fmt.Errorf("led: window size must be positive")
	}
	if slide <= 0 {
		return fmt.Errorf("led: window slide must be positive")
	}
	return nil
}

// validateAgg rejects aggregate expressions the detector cannot evaluate.
func validateAgg(e *snoop.Agg) error {
	if err := validateWindow(e.Size, e.Slide); err != nil {
		return err
	}
	if !snoop.AggFns[e.Fn] {
		return fmt.Errorf("led: unknown aggregate function %q", e.Fn)
	}
	if e.Param != "vno" {
		return fmt.Errorf("led: unsupported aggregate parameter %q (only vno)", e.Param)
	}
	return nil
}

func intervalKind(rel string) (kind, error) {
	switch rel {
	case "DURING":
		return kDuring, nil
	case "OVERLAPS":
		return kOverlaps, nil
	default:
		return 0, fmt.Errorf("led: unknown interval relation %q", rel)
	}
}

// boundaryAfter returns the first slide-grid boundary strictly after t.
func boundaryAfter(t time.Time, slide time.Duration) time.Time {
	s := slide.Nanoseconds()
	ns := t.UnixNano()
	q := ns / s
	if ns%s != 0 && ns < 0 {
		q--
	}
	return time.Unix(0, (q+1)*s).UTC()
}

// onWindowChild buffers a child occurrence and lazily arms the next
// boundary. Runs with the detector lock held.
func (n *node) onWindowChild(ctx Context, st *opState, occ *Occ) {
	st.ring = append(st.ring, occ)
	if st.nextBound.IsZero() {
		n.armBoundary(ctx, st, boundaryAfter(occ.At, n.slide))
	}
}

// armBoundary arms the window's boundary timer at the logical deadline at.
func (n *node) armBoundary(ctx Context, st *opState, at time.Time) {
	st.nextBound = at
	st.ringStop = n.armTimer(at, func(fireAt time.Time) {
		// The node may have been restored (or the context torn down)
		// between arming and firing; only the deadline the state still
		// expects may run the boundary.
		if !st.nextBound.Equal(fireAt) {
			return
		}
		n.onBoundary(ctx, st, fireAt)
	})
}

// onBoundary emits the window/aggregate occurrence for boundary at, evicts
// dead ring entries, and re-arms iff anything is left.
func (n *node) onBoundary(ctx Context, st *opState, at time.Time) {
	st.nextBound = time.Time{}
	st.ringStop = nil
	lo := at.Add(-n.dur)
	var content []*Occ
	for _, o := range st.ring {
		if !o.At.Before(lo) && o.At.Before(at) {
			content = append(content, o)
		}
	}
	// Evict everything that cannot appear at any boundary after this one:
	// the next window is [at+slide-size, at+slide).
	evictLo := at.Add(n.slide - n.dur)
	kept := st.ring[:0]
	for _, o := range st.ring {
		if !o.At.Before(evictLo) {
			kept = append(kept, o)
		}
	}
	for i := len(kept); i < len(st.ring); i++ {
		st.ring[i] = nil
	}
	st.ring = kept
	if len(st.ring) > 0 {
		n.armBoundary(ctx, st, at.Add(n.slide))
	} else {
		st.ring = nil
	}
	if len(content) == 0 {
		return
	}
	if n.kind == kAgg {
		v := aggValue(n.aggFn, content)
		if n.aggCmp != "" && !cmpHolds(n.aggCmp, v, n.aggThr) {
			return
		}
	}
	// The boundary tick rides along as a constituent so the composite's
	// At lands on the boundary (mergeOccs takes the latest constituent),
	// mirroring the periodic operator's tick primitives.
	tick := &Occ{
		Event: n.eventName(),
		At:    at,
		Constituents: []Primitive{{
			Event: n.eventName(), Op: "tick", At: at,
		}},
	}
	parts := make([]*Occ, 0, len(content)+1)
	parts = append(parts, content...)
	parts = append(parts, tick)
	n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
}

// aggValue evaluates an aggregate function over the vno parameter of the
// window content's constituents. Ticks and time primitives (VNo 0 markers
// from PLUS/periodic children) still count — the aggregate ranges over
// every constituent the content carries, which is what the oracle
// recomputes from history.
func aggValue(fn string, content []*Occ) float64 {
	var (
		count int
		sum   float64
		min   float64
		max   float64
		first = true
	)
	for _, o := range content {
		for _, p := range o.Constituents {
			v := float64(p.VNo)
			count++
			sum += v
			if first || v < min {
				min = v
			}
			if first || v > max {
				max = v
			}
			first = false
		}
	}
	switch fn {
	case "COUNT":
		return float64(count)
	case "SUM":
		return sum
	case "AVG":
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	case "MIN":
		return min
	case "MAX":
		return max
	}
	return 0
}

// cmpHolds applies an AGG comparator.
func cmpHolds(cmp string, v, thr float64) bool {
	switch cmp {
	case ">":
		return v > thr
	case ">=":
		return v >= thr
	case "<":
		return v < thr
	case "<=":
		return v <= thr
	case "==":
		return v == thr
	case "!=":
		return v != thr
	}
	return false
}

// occExtent is the durative extent of an occurrence: from its earliest
// constituent's instant to its detection instant. mergeOccs keeps
// constituents sorted by At, so the first entry is the start.
func occExtent(o *Occ) (start, end time.Time) {
	if len(o.Constituents) > 0 {
		return o.Constituents[0].At, o.At
	}
	return o.At, o.At
}

// intervalHolds reports whether the node's Allen relation holds between
// the left and right occurrence extents. Both relations are strict, and
// both imply the left interval ends before the right one — so the right
// occurrence is always the terminator (it is detected last).
func (n *node) intervalHolds(l, r *Occ) bool {
	ls, le := occExtent(l)
	rs, re := occExtent(r)
	switch n.kind {
	case kDuring:
		return ls.After(rs) && le.Before(re)
	case kOverlaps:
		return ls.Before(rs) && rs.Before(le) && le.Before(re)
	}
	return false
}

// onInterval implements L DURING R / L OVERLAPS R with Seq's per-context
// consumption policy: left occurrences buffer, the right occurrence
// terminates, eligibility is the Allen relation instead of strict
// precedence.
func (n *node) onInterval(ctx Context, st *opState, idx int, occ *Occ) {
	if idx == 0 { // left operand buffers
		switch ctx {
		case Recent:
			st.left = []*Occ{occ}
		default:
			st.left = append(st.left, occ)
		}
		return
	}
	eligible := st.left[:0:0]
	for _, l := range st.left {
		if n.intervalHolds(l, occ) {
			eligible = append(eligible, l)
		}
	}
	if len(eligible) == 0 {
		return
	}
	switch ctx {
	case Recent:
		n.emit(ctx, mergeOccs(n.eventName(), ctx, eligible[len(eligible)-1], occ))
	case Chronicle:
		oldest := eligible[0]
		n.emit(ctx, mergeOccs(n.eventName(), ctx, oldest, occ))
		n.removeLeft(st, oldest)
	case Continuous:
		for _, l := range eligible {
			n.emit(ctx, mergeOccs(n.eventName(), ctx, l, occ))
			n.removeLeft(st, l)
		}
	case Cumulative:
		parts := make([]*Occ, 0, len(eligible)+1)
		parts = append(parts, eligible...)
		parts = append(parts, occ)
		for _, l := range eligible {
			n.removeLeft(st, l)
		}
		n.emit(ctx, mergeOccs(n.eventName(), ctx, parts...))
	}
}
