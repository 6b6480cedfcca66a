package cluster

import (
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/led"
)

// Heartbeater is the primary's liveness beacon: every interval it ships
// one FrameHeartbeat carrying a monotonic sequence number and the node's
// current fencing epoch. It runs on the led.Clock seam — the chaos suite
// drives it with a ManualClock, so "the primary went silent" is a test
// step, not a sleep.
type Heartbeater struct {
	clock    led.Clock
	interval time.Duration
	tok      *Token
	sink     Sink
	met      *Metrics

	mu      sync.Mutex
	seq     uint64 // guarded by mu
	stopped bool   // guarded by mu
	cancel  func() // pending timer; guarded by mu
}

// NewHeartbeater returns a stopped beacon; Start arms it.
func NewHeartbeater(clock led.Clock, interval time.Duration, tok *Token, sink Sink, met *Metrics) *Heartbeater {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return &Heartbeater{clock: clock, interval: interval, tok: tok, sink: sink, met: met}
}

// Start emits one beat immediately and then every interval until Stop.
func (h *Heartbeater) Start() {
	h.mu.Lock()
	h.stopped = false
	h.mu.Unlock()
	h.beat()
}

// beat sends one heartbeat and re-arms the timer.
func (h *Heartbeater) beat() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.seq++
	seq := h.seq
	h.cancel = h.clock.AfterFunc(h.interval, h.beat)
	h.mu.Unlock()
	_ = h.sink(Frame{Kind: FrameHeartbeat, Payload: heartbeatPayload(seq, h.tok.Epoch())})
	if h.met != nil {
		h.met.HeartbeatsSent.Inc()
	}
}

// Stop silences the beacon (idempotent). A dead process stops beating
// without calling Stop — that is the failure the monitor detects.
func (h *Heartbeater) Stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	if h.cancel != nil {
		h.cancel()
		h.cancel = nil
	}
}

// MonitorConfig tunes failure detection.
type MonitorConfig struct {
	// Clock drives the check cadence (required; ManualClock in tests).
	Clock led.Clock
	// Interval is how often the monitor checks for fresh beats; it should
	// match (or slightly exceed) the primary's heartbeat interval.
	Interval time.Duration
	// Misses is the hysteresis threshold: this many consecutive intervals
	// without a beat before the primary is suspected. One dropped
	// datagram or a scheduling hiccup must not trigger a failover.
	Misses int
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Misses <= 0 {
		c.Misses = 3
	}
	return c
}

// Monitor watches the heartbeat stream on a standby and decides when the
// primary is dead. Hysteresis works in both directions: Misses
// consecutive silent intervals to suspect, and a single fresh beat to
// clear the count — a flapping link keeps resetting the fuse instead of
// accumulating toward a spurious failover.
type Monitor struct {
	cfg MonitorConfig
	met *Metrics

	mu       sync.Mutex
	beats    uint64    // beats observed since the last tick; guarded by mu
	lastSeq  uint64    // highest sequence seen; guarded by mu
	misses   int       // consecutive silent intervals; guarded by mu
	promoted bool      // a promotion was demanded; guarded by mu
	stopped  bool      // guarded by mu
	cancel   func()    // pending timer; guarded by mu
	suspect  time.Time // when the miss threshold was crossed; guarded by mu

	// onPromote fires (once) outside mu after Misses silent intervals.
	onPromote func()
}

// NewMonitor returns an idle monitor; Start arms its check cadence.
func NewMonitor(cfg MonitorConfig, met *Metrics, onPromote func()) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), met: met, onPromote: onPromote}
}

// Beat observes one heartbeat (wire the Applier's OnHeartbeat here).
// Out-of-order or duplicate beats — UDP relays, reconnect replays — only
// ever count once: sequence numbers must advance.
func (m *Monitor) Beat(seq, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq <= m.lastSeq {
		return
	}
	m.lastSeq = seq
	m.beats++
	m.misses = 0
	m.suspect = time.Time{}
}

// Start begins periodic checks; the first runs one interval from now.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = false
	m.cancel = m.cfg.Clock.AfterFunc(m.cfg.Interval, m.tick)
}

// Stop disarms the monitor (idempotent; a fired promotion stays fired).
func (m *Monitor) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
	if m.cancel != nil {
		m.cancel()
		m.cancel = nil
	}
}

// Misses reports the current consecutive-silent-interval count.
func (m *Monitor) Misses() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}

// Promoted reports whether the monitor has demanded a promotion.
func (m *Monitor) Promoted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.promoted
}

// tick is one check interval: count a miss or reset, then decide.
func (m *Monitor) tick() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.cancel = m.cfg.Clock.AfterFunc(m.cfg.Interval, m.tick)
	promote := false
	if m.beats == 0 {
		m.misses++
		if m.met != nil {
			m.met.HeartbeatsMissed.Inc()
		}
		if m.misses == m.cfg.Misses {
			m.suspect = m.cfg.Clock.Now()
		}
		if m.misses >= m.cfg.Misses && !m.promoted {
			m.promoted = true
			promote = true
		}
	} else {
		m.misses = 0
	}
	m.beats = 0
	m.mu.Unlock()
	if promote && m.onPromote != nil {
		m.onPromote()
	}
}

// SuspectedAt reports when the miss threshold was crossed (zero when the
// primary is currently believed healthy) — the anchor the failover suite
// measures its promotion deadline from.
func (m *Monitor) SuspectedAt() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suspect
}
