package cluster

import (
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
)

func newTestMonitor() (*led.ManualClock, *Monitor, *int) {
	clock := led.NewManualClock(foClockBase)
	promotions := 0
	m := NewMonitor(MonitorConfig{
		Clock:    clock,
		Interval: time.Second,
		Misses:   3,
	}, NewMetrics(obs.NewRegistry()), func() { promotions++ })
	m.Start()
	return clock, m, &promotions
}

func TestMonitorSteadyBeatsNeverPromote(t *testing.T) {
	clock, m, promotions := newTestMonitor()
	seq := uint64(0)
	for i := 0; i < 20; i++ {
		seq++
		m.Beat(seq, 1)
		clock.Advance(time.Second)
	}
	if m.Misses() != 0 || m.Promoted() || *promotions != 0 {
		t.Fatalf("healthy stream: misses=%d promoted=%v count=%d", m.Misses(), m.Promoted(), *promotions)
	}
}

func TestMonitorHysteresisAbsorbsFlaps(t *testing.T) {
	clock, m, promotions := newTestMonitor()
	seq := uint64(0)
	// Two silent intervals, then a beat, repeatedly: the miss counter must
	// keep resetting below the threshold of three.
	for round := 0; round < 5; round++ {
		clock.Advance(2 * time.Second)
		if m.Misses() != 2 {
			t.Fatalf("round %d: misses = %d, want 2", round, m.Misses())
		}
		seq++
		m.Beat(seq, 1)
		clock.Advance(time.Second)
		if m.Misses() != 0 {
			t.Fatalf("round %d: a fresh beat must clear the fuse, misses = %d", round, m.Misses())
		}
	}
	if m.Promoted() || *promotions != 0 {
		t.Fatal("a flapping link promoted")
	}
}

func TestMonitorDuplicateBeatsCountOnce(t *testing.T) {
	clock, m, _ := newTestMonitor()
	m.Beat(5, 1)
	clock.Advance(time.Second) // consumes the real beat
	// A relay replaying old sequence numbers must not look like liveness.
	for i := 0; i < 3; i++ {
		m.Beat(5, 1)
		m.Beat(3, 1)
		clock.Advance(time.Second)
	}
	if m.Misses() != 3 {
		t.Fatalf("misses = %d, want 3 (replayed beats must not count)", m.Misses())
	}
}

func TestMonitorPromotesAfterMisses(t *testing.T) {
	clock, m, promotions := newTestMonitor()
	m.Beat(1, 1)
	clock.Advance(time.Second)
	start := clock.Now()
	for i := 0; i < 3; i++ {
		clock.Advance(time.Second)
	}
	if !m.Promoted() || *promotions != 1 {
		t.Fatalf("promoted=%v count=%d after 3 silent intervals", m.Promoted(), *promotions)
	}
	if got := m.SuspectedAt(); got.Sub(start) != 3*time.Second {
		t.Fatalf("suspected at %v, want start+3s", got)
	}
	// The decision latches: more silence must not re-promote.
	clock.Advance(5 * time.Second)
	if *promotions != 1 {
		t.Fatalf("re-promoted: count = %d", *promotions)
	}
}

func TestMonitorStopDisarms(t *testing.T) {
	clock, m, promotions := newTestMonitor()
	m.Stop()
	clock.Advance(20 * time.Second)
	if m.Promoted() || *promotions != 0 {
		t.Fatal("stopped monitor promoted")
	}
}

func TestHeartbeaterBeatsOnClock(t *testing.T) {
	clock := led.NewManualClock(foClockBase)
	met := NewMetrics(obs.NewRegistry())
	tok := &Token{}
	tok.Set(9)
	var frames []Frame
	hb := NewHeartbeater(clock, time.Second, tok, func(f Frame) error {
		frames = append(frames, f)
		return nil
	}, met)
	hb.Start()
	clock.Advance(3 * time.Second)
	hb.Stop()
	clock.Advance(10 * time.Second)
	if len(frames) != 4 { // one at Start, one per interval
		t.Fatalf("beats = %d, want 4", len(frames))
	}
	for i, f := range frames {
		seq, epoch, err := decodeHeartbeat(f.Payload)
		if err != nil || f.Kind != FrameHeartbeat {
			t.Fatalf("frame %d: kind=%d err=%v", i, f.Kind, err)
		}
		if seq != uint64(i+1) || epoch != 9 {
			t.Fatalf("frame %d: seq=%d epoch=%d", i, seq, epoch)
		}
	}
	if met.HeartbeatsSent.Value() != 4 {
		t.Fatalf("sent counter = %d", met.HeartbeatsSent.Value())
	}
}
