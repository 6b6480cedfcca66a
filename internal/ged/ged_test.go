package ged

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/led"
)

func TestGlobalNameAndForwardRoundTrip(t *testing.T) {
	p := led.Primitive{Event: "db.u.addStk", Table: "db.u.stock", Op: "insert", VNo: 7}
	msg := ForwardMessage("siteA", p)
	site, got, err := parseForward(msg)
	if err != nil || site != "siteA" || got.Event != p.Event || got.VNo != 7 {
		t.Errorf("round trip: %v %+v %v", site, got, err)
	}
	for _, bad := range []string{"", "GED1|a|b", "XXX|a|b|c|d|1", "GED1|a|b|c|d|x"} {
		if _, _, err := parseForward(bad); err == nil {
			t.Errorf("parseForward(%q) succeeded", bad)
		}
	}
}

func TestGlobalCompositeDetection(t *testing.T) {
	g := New(led.NewManualClock(time.Unix(0, 0)))
	for _, s := range []string{"ny", "sf"} {
		if err := g.RegisterSite(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RegisterSite("ny"); err == nil {
		t.Error("duplicate site accepted")
	}
	if err := g.DeclareSiteEvent("ny", "addStk"); err != nil {
		t.Fatal(err)
	}
	if err := g.DeclareSiteEvent("ny", "addStk"); err != nil {
		t.Fatal("redeclare should be idempotent")
	}
	if err := g.DeclareSiteEvent("mars", "x"); err == nil {
		t.Error("event on unregistered site accepted")
	}

	if err := g.DefineGlobalEvent("crossSite", "addStk::ny ^ addStk::sf"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var occs []*led.Occ
	err := g.AddRule(&led.Rule{
		Name: "r", Event: "crossSite", Context: led.Chronicle,
		Action: func(o *led.Occ) { mu.Lock(); occs = append(occs, o); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}

	g.Signal("ny", led.Primitive{Event: "addStk", Table: "t", Op: "insert", VNo: 1, At: time.Unix(1, 0)})
	if len(occs) != 0 {
		t.Fatal("fired with one site only")
	}
	g.Signal("sf", led.Primitive{Event: "addStk", Table: "t", Op: "insert", VNo: 2, At: time.Unix(2, 0)})
	mu.Lock()
	defer mu.Unlock()
	if len(occs) != 1 {
		t.Fatalf("global AND fired %d times", len(occs))
	}
	names := []string{occs[0].Constituents[0].Event, occs[0].Constituents[1].Event}
	if names[0] != "addStk::ny" || names[1] != "addStk::sf" {
		t.Errorf("constituents: %v", names)
	}
}

func TestDefineGlobalEventValidation(t *testing.T) {
	g := New(led.NewManualClock(time.Unix(0, 0)))
	_ = g.RegisterSite("a")
	if err := g.DefineGlobalEvent("bad", "addStk ^ delStk"); err == nil ||
		!strings.Contains(err.Error(), "site-qualified") {
		t.Errorf("unqualified refs accepted: %v", err)
	}
	if err := g.DefineGlobalEvent("bad2", "addStk::nowhere"); err == nil {
		t.Error("unknown site accepted")
	}
	if err := g.DefineGlobalEvent("bad3", "not valid ("); err == nil {
		t.Error("garbage expression accepted")
	}
}

func TestSignalRejectsUnregisteredSiteByDefault(t *testing.T) {
	g := New(led.NewManualClock(time.Unix(0, 0)))
	// Default policy: an unknown site's signal is dropped and counted —
	// RegisterSite's "already registered" error contract means sites are
	// explicit, so Signal must not invent them silently.
	g.Signal("stranger", led.Primitive{Event: "e", At: time.Unix(1, 0)})
	if g.LED().HasEvent("e::stranger") {
		t.Error("unregistered site's event was defined")
	}
	if st := g.Stats(); st.SignalsRejected != 1 || st.SignalsAccepted != 0 {
		t.Errorf("stats after rejection: %+v", st)
	}
	// A registered site's signal is accepted, and its event still
	// registers lazily (only the site has a registration contract).
	if err := g.RegisterSite("known"); err != nil {
		t.Fatal(err)
	}
	g.Signal("known", led.Primitive{Event: "e", At: time.Unix(2, 0)})
	if !g.LED().HasEvent("e::known") {
		t.Error("registered site's event not lazily defined")
	}
	if st := g.Stats(); st.SignalsAccepted != 1 || st.SignalsRejected != 1 {
		t.Errorf("stats after accept: %+v", st)
	}
}

// TestTwoAgentsOneGED wires two complete agents (each fronting its own SQL
// server engine) to a GED over UDP — the full distributed deployment of
// the paper's future work.
func TestTwoAgentsOneGED(t *testing.T) {
	g := New(nil)
	if err := g.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, s := range []string{"ny", "sf"} {
		if err := g.RegisterSite(s); err != nil {
			t.Fatal(err)
		}
	}

	quiet := func(string, ...any) {}
	mkSite := func(site string) (*agent.Agent, *agent.ClientSession) {
		t.Helper()
		eng := engine.New(catalog.New())
		fwd, err := Forwarder(site, g.Addr())
		if err != nil {
			t.Fatal(err)
		}
		a, err := agent.New(agent.Config{
			Dial:       agent.LocalDialer(eng),
			NotifyAddr: "-",
			Logf:       quiet,
			Forward:    func(p led.Primitive) { _ = fwd(p) },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		eng.SetNotifier(func(h string, p int, msg string) error { a.Deliver(msg); return nil })
		seed := eng.NewSession("ops")
		if _, err := seed.ExecScript("create database trading use trading create table stock (symbol varchar(10), price float null)"); err != nil {
			t.Fatal(err)
		}
		cs, err := a.NewClientSession("ops", "trading")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cs.Close() })
		if _, err := cs.Exec("create trigger t_add on stock for insert event addStk as print 'local'"); err != nil {
			t.Fatal(err)
		}
		return a, cs
	}

	_, csNY := mkSite("ny")
	_, csSF := mkSite("sf")

	if err := g.DefineGlobalEvent("bothCoasts", "trading.ops.addStk::ny ^ trading.ops.addStk::sf"); err != nil {
		t.Fatal(err)
	}
	fired := make(chan *led.Occ, 1)
	err := g.AddRule(&led.Rule{
		Name: "global", Event: "bothCoasts", Context: led.Recent,
		Action: func(o *led.Occ) {
			select {
			case fired <- o:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := csNY.Exec("insert stock values ('IBM', 100)"); err != nil {
		t.Fatal(err)
	}
	if _, err := csSF.Exec("insert stock values ('IBM', 101)"); err != nil {
		t.Fatal(err)
	}

	select {
	case occ := <-fired:
		if len(occ.Constituents) != 2 {
			t.Errorf("global occurrence: %+v", occ)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("global event never detected")
	}
}

// TestConcurrentSiteFanIn drives many sites into the GED at once: the
// shared-lock fast path into the global LED must accept every signal
// exactly once, with each site's global composite detecting its own
// occurrences independently.
func TestConcurrentSiteFanIn(t *testing.T) {
	g := New(led.NewManualClock(time.Unix(0, 0)))
	const (
		sites   = 6
		perSite = 40
	)
	var (
		mu    sync.Mutex
		fired = make(map[string]int)
	)
	for i := 0; i < sites; i++ {
		site := siteName(i)
		if err := g.RegisterSite(site); err != nil {
			t.Fatal(err)
		}
		if err := g.DeclareSiteEvent(site, "tick"); err != nil {
			t.Fatal(err)
		}
		if err := g.DefineGlobalEvent("g_"+site, "tick::"+site); err != nil {
			t.Fatal(err)
		}
		if err := g.AddRule(&led.Rule{
			Name: "r_" + site, Event: "g_" + site, Context: led.Chronicle,
			Action: func(o *led.Occ) {
				mu.Lock()
				fired[o.Constituents[0].Event]++
				mu.Unlock()
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	base := time.Unix(0, 0)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(site string) {
			defer wg.Done()
			for v := 1; v <= perSite; v++ {
				g.Signal(site, led.Primitive{
					Event: "tick", Table: "t", Op: "insert", VNo: v,
					At: base.Add(time.Duration(v) * time.Millisecond),
				})
			}
		}(siteName(i))
	}
	wg.Wait()

	st := g.Stats()
	if st.SignalsAccepted != sites*perSite {
		t.Errorf("SignalsAccepted = %d, want %d", st.SignalsAccepted, sites*perSite)
	}
	if st.SignalsRejected != 0 {
		t.Errorf("SignalsRejected = %d, want 0", st.SignalsRejected)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < sites; i++ {
		name := globalName("tick", siteName(i))
		if fired[name] != perSite {
			t.Errorf("site %d fired %d rules, want %d", i, fired[name], perSite)
		}
	}
}

func siteName(i int) string { return string(rune('A'+i)) + "site" }
