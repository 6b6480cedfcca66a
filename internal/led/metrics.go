package led

import (
	"sync/atomic"

	"github.com/activedb/ecaagent/internal/obs"
)

// opName is the metric label for each event-graph node kind.
var opName = map[kind]string{
	kPrimitive: "primitive",
	kOr:        "or",
	kAnd:       "and",
	kSeq:       "seq",
	kNot:       "not",
	kAper:      "aperiodic",
	kAperStar:  "aperiodic_star",
	kPer:       "periodic",
	kPerStar:   "periodic_star",
	kPlus:      "plus",
	kTemporal:  "temporal",
	kWindow:    "window",
	kAgg:       "agg",
	kDuring:    "during",
	kOverlaps:  "overlaps",
}

// ledMetrics holds the detector's instruments. Per-kind counters are
// resolved once at registration so the emit hot path is a single atomic
// add, not a label lookup.
type ledMetrics struct {
	detectSec *obs.Histogram
	opOccs    map[kind]*obs.Counter
}

// EnableMetrics registers the detector's instruments in reg and starts
// recording: eca_detect_latency_seconds observes each Signal's graph
// propagation (lock wait included — that is what a caller experiences)
// but not the rule actions it then runs, and
// eca_led_operator_occurrences_total{op} counts occurrences each operator
// node emits. Safe to call at any time; concurrent Signals pick
// the instruments up atomically.
func (l *LED) EnableMetrics(reg *obs.Registry) {
	m := &ledMetrics{
		detectSec: reg.Histogram("eca_detect_latency_seconds",
			"LED detect latency per signalled primitive occurrence, seconds.", nil),
		opOccs: make(map[kind]*obs.Counter, len(opName)),
	}
	occs := reg.CounterVec("eca_led_operator_occurrences_total",
		"Occurrences emitted by event-graph nodes, by operator kind.", "op")
	for k, name := range opName {
		m.opOccs[k] = occs.With(name)
	}
	l.met.Store(m)
}

// countOcc records one emitted occurrence for a node kind (nil-safe).
func (l *LED) countOcc(k kind) {
	if m := l.met.Load(); m != nil {
		m.opOccs[k].Inc()
	}
}

// metAtomic is a typed wrapper so LED can hold the pointer without
// importing sync/atomic generics clutter at every use site.
type metAtomic = atomic.Pointer[ledMetrics]
