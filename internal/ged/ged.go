// Package ged implements the Global Event Detector the paper's §6 lists as
// future work: "support heterogeneous distributed active capability ...
// and use a global event detector (GED) for events and rules across
// application/systems."
//
// Sites (ECA agents) forward their primitive event occurrences to the GED,
// where global composite events — Snoop expressions over site-qualified
// event references (eventName::siteName, the BNF's AppId form) — are
// detected with the same parameter contexts as local events.
package ged

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/snoop"
)

// globalName is the GED-internal name of a site-qualified event.
func globalName(event, site string) string { return event + "::" + site }

// GED detects composite events spanning multiple sites.
type GED struct {
	// mu guards sites. Signal takes it shared: the fan-in path from many
	// forwarding sites only reads the registry once its site and event are
	// known, so concurrent sites serialize only on the global LED's
	// detector lock, not on the GED registry as well.
	mu    sync.RWMutex
	led   *led.LED
	sites map[string]bool // guarded by mu

	sigAccepted atomic.Uint64
	sigRejected atomic.Uint64

	conn *net.UDPConn
	wg   sync.WaitGroup
}

// New returns a GED. A nil clock selects real time. Signals from
// unregistered sites are rejected and counted: RegisterSite promises
// "already registered" errors, and silently adopting any sender would
// contradict that contract (and let a typoed site name shadow a real one
// forever).
func New(clock led.Clock) *GED {
	return &GED{led: led.New(clock), sites: make(map[string]bool)}
}

// Stats is a snapshot of the GED's signal-policy counters.
type Stats struct {
	// SignalsAccepted counts signals from registered sites fed to the LED.
	SignalsAccepted uint64
	// SignalsRejected counts signals dropped because their site was not
	// registered.
	SignalsRejected uint64
}

// Stats returns the current counters.
func (g *GED) Stats() Stats {
	return Stats{
		SignalsAccepted: g.sigAccepted.Load(),
		SignalsRejected: g.sigRejected.Load(),
	}
}

// EnableMetrics registers the GED's counters (and its LED's detection
// instruments) in reg.
func (g *GED) EnableMetrics(reg *obs.Registry) {
	reg.CounterFunc("ged_signals_accepted_total",
		"Site signals from registered sites fed to the global LED.",
		func() float64 { return float64(g.sigAccepted.Load()) })
	reg.CounterFunc("ged_signals_rejected_total",
		"Site signals dropped because their site was not registered.",
		func() float64 { return float64(g.sigRejected.Load()) })
	g.led.EnableMetrics(reg)
}

// LED exposes the underlying detector (rules, deferred flushing).
func (g *GED) LED() *led.LED { return g.led }

// RegisterSite announces a participating site.
func (g *GED) RegisterSite(site string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sites[site] {
		return fmt.Errorf("ged: site %q already registered", site)
	}
	g.sites[site] = true
	return nil
}

// DeclareSiteEvent pre-registers a site's event so global composites can
// reference it. Site events are also registered lazily on first Signal.
func (g *GED) DeclareSiteEvent(site, event string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.sites[site] {
		return fmt.Errorf("ged: site %q is not registered", site)
	}
	name := globalName(event, site)
	if g.led.HasEvent(name) {
		return nil
	}
	return g.led.DefinePrimitive(name)
}

// Signal injects one site's primitive event occurrence. Signals from
// unregistered sites are dropped; either way the outcome is counted in
// Stats. Site events are still registered lazily on first signal — only
// the *site* has an explicit registration contract.
func (g *GED) Signal(site string, p led.Primitive) {
	name := globalName(p.Event, site)
	// Fast path: known site, known event — a shared lock suffices, so
	// concurrent site streams fan into the LED without serializing here.
	g.mu.RLock()
	known := g.sites[site] && g.led.HasEvent(name)
	g.mu.RUnlock()
	if !known && !g.registerSlow(site, name) {
		return
	}
	g.sigAccepted.Add(1)
	p.Event = name
	g.led.Signal(p)
}

// registerSlow is Signal's write path: a site event's lazy registration,
// or the rejection of an unregistered site. Reports whether the signal may
// proceed.
func (g *GED) registerSlow(site, name string) bool {
	g.mu.Lock()
	if !g.sites[site] {
		g.mu.Unlock()
		g.sigRejected.Add(1)
		return false
	}
	if !g.led.HasEvent(name) {
		_ = g.led.DefinePrimitive(name)
	}
	g.mu.Unlock()
	return true
}

// DefineGlobalEvent registers a named composite over site-qualified
// references: "addStk::siteA ^ delStk::siteB". Unqualified references are
// rejected — a global event must say which site each constituent comes
// from.
func (g *GED) DefineGlobalEvent(name, expr string) error {
	e, err := snoop.Parse(expr)
	if err != nil {
		return err
	}
	var walkErr error
	snoop.Walk(e, func(x snoop.Expr) {
		ref, ok := x.(*snoop.EventRef)
		if !ok || walkErr != nil {
			return
		}
		if ref.App == "" {
			walkErr = fmt.Errorf("ged: event %q must be site-qualified (event::site)", ref.Name)
			return
		}
		site, event := ref.App, ref.Name
		g.mu.Lock()
		if !g.sites[site] {
			g.mu.Unlock()
			walkErr = fmt.Errorf("ged: site %q is not registered", site)
			return
		}
		gn := globalName(event, site)
		if !g.led.HasEvent(gn) {
			_ = g.led.DefinePrimitive(gn)
		}
		g.mu.Unlock()
		ref.Name, ref.App = gn, ""
	})
	if walkErr != nil {
		return walkErr
	}
	return g.led.DefineComposite(name, e)
}

// AddRule attaches a rule to a global event.
func (g *GED) AddRule(r *led.Rule) error { return g.led.AddRule(r) }

// DropRule detaches a rule.
func (g *GED) DropRule(name string) error { return g.led.DropRule(name) }

// --- wire transport ---

// Datagram format forwarded by agents: GED1|site|event|table|op|vno.

// ForwardMessage encodes one occurrence for UDP forwarding.
func ForwardMessage(site string, p led.Primitive) string {
	return fmt.Sprintf("GED1|%s|%s|%s|%s|%d", site, p.Event, p.Table, p.Op, p.VNo)
}

// parseForward decodes a forwarded occurrence.
func parseForward(msg string) (site string, p led.Primitive, err error) {
	parts := strings.Split(strings.TrimSpace(msg), "|")
	if len(parts) != 6 || parts[0] != "GED1" {
		return "", led.Primitive{}, fmt.Errorf("ged: malformed datagram %q", msg)
	}
	vno := 0
	for _, r := range parts[5] {
		if r < '0' || r > '9' {
			return "", led.Primitive{}, fmt.Errorf("ged: bad vNo in %q", msg)
		}
		vno = vno*10 + int(r-'0')
	}
	return parts[1], led.Primitive{Event: parts[2], Table: parts[3], Op: parts[4], VNo: vno}, nil
}

// Listen binds a UDP socket that accepts forwarded occurrences from remote
// agents.
func (g *GED) Listen(addr string) error {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.conn = conn
	g.mu.Unlock()
	g.wg.Add(1)
	go g.listen(conn)
	return nil
}

// Addr returns the bound UDP address, or "".
func (g *GED) Addr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.conn == nil {
		return ""
	}
	return g.conn.LocalAddr().String()
}

func (g *GED) listen(conn *net.UDPConn) {
	defer g.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		site, p, err := parseForward(string(buf[:n]))
		if err != nil {
			continue
		}
		g.Signal(site, p)
	}
}

// Close stops the UDP listener and waits for its goroutine.
func (g *GED) Close() {
	g.mu.Lock()
	conn := g.conn
	g.conn = nil
	g.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	g.wg.Wait()
}

// Forwarder returns a function an agent can use to forward every locally
// detected primitive occurrence to a GED over UDP.
func Forwarder(site, gedAddr string) (func(p led.Primitive) error, error) {
	conn, err := net.Dial("udp", gedAddr)
	if err != nil {
		return nil, err
	}
	return func(p led.Primitive) error {
		_, err := conn.Write([]byte(ForwardMessage(site, p)))
		return err
	}, nil
}
