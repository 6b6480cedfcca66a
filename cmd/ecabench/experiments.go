package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/snoop"
)

// experiments maps ids to the quantitative measurements EXPERIMENTS.md
// records. The paper publishes no performance numbers; these characterize
// the costs its architecture implies (mediation, notification, detection,
// recovery).
var experiments = map[string]struct {
	title string
	fn    func(w io.Writer) error
	// manual experiments need external inputs (a committed baseline) or
	// re-run other experiments wholesale; `-exp all` skips them.
	manual bool
}{
	"passthrough": {title: "per-statement latency: direct server vs via ECA agent gateway", fn: expPassthrough},
	"e2e":         {title: "end-to-end rule latency: DML to action completion", fn: expEndToEnd},
	"notify":      {title: "notification transport: UDP datagram vs in-process delivery", fn: expNotify},
	"operators":   {title: "LED detection cost per Snoop operator", fn: expOperators},
	"contexts":    {title: "LED detection cost per parameter context", fn: expContexts},
	"recovery":    {title: "agent restart time vs persisted rule count", fn: expRecovery},
	"fanout":      {title: "k triggers on one event (native limit lifted)", fn: expFanout},
	"matrix":      {title: "gated hot-path micro-benchmarks + host calibration (BENCH_PR7.json)", fn: expMatrix, manual: true},
	"gate":        {title: "perf-regression gate: fresh gated metrics vs committed BENCH_PR7.json", fn: expGate, manual: true},
	"syncship":    {title: "sync-ship overhead: per-record durable-ack barrier vs fire-and-forget (BENCH_PR9.json)", fn: expSyncShip, manual: true},
}

func experimentIDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

const expRounds = 2000

func median(durs []time.Duration) time.Duration {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
}

// scrapeEnabled is ecabench's -metrics flag: experiments that stand up a
// tcpDeployment also serve the agent's admin endpoint and print a /metrics
// scrape summary when the deployment closes.
var scrapeEnabled bool

// tcpDeployment stands up the full paper deployment: server, agent, and a
// client connected to each.
type tcpDeployment struct {
	srv    *server.Server
	agent  *agent.Agent
	direct *client.Conn
	viaAg  *client.Conn

	adminLn  net.Listener // nil unless -metrics
	adminURL string
}

func newTCPDeployment() (*tcpDeployment, error) {
	srv := server.New(engine.New(catalog.New()))
	srv.Logf = func(string, ...any) {}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	a, err := agent.New(agent.Config{Dial: agent.TCPDialer(srv.Addr()), Logf: func(string, ...any) {}})
	if err != nil {
		srv.Close()
		return nil, err
	}
	if err := a.ListenGateway("127.0.0.1:0"); err != nil {
		a.Close()
		srv.Close()
		return nil, err
	}
	direct, err := client.Connect(srv.Addr(), client.Options{User: "sharma"})
	if err != nil {
		a.Close()
		srv.Close()
		return nil, err
	}
	viaAg, err := client.Connect(a.GatewayAddr(), client.Options{User: "sharma"})
	if err != nil {
		direct.Close()
		a.Close()
		srv.Close()
		return nil, err
	}
	if err := direct.MustExec("create database sentineldb use sentineldb create table stock (symbol varchar(10), price float null)"); err != nil {
		return nil, err
	}
	if err := viaAg.MustExec("use sentineldb"); err != nil {
		return nil, err
	}
	d := &tcpDeployment{srv: srv, agent: a, direct: direct, viaAg: viaAg}
	if scrapeEnabled {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		d.adminLn = ln
		d.adminURL = "http://" + ln.Addr().String()
		go func() { _ = http.Serve(ln, a.AdminHandler()) }()
	}
	return d, nil
}

func (d *tcpDeployment) close() {
	if d.adminLn != nil {
		if err := printScrapeSummary(os.Stdout, d.adminURL+"/metrics"); err != nil {
			fmt.Fprintf(os.Stderr, "ecabench: metrics scrape: %v\n", err)
		}
		d.adminLn.Close()
	}
	d.viaAg.Close()
	d.direct.Close()
	d.agent.Close()
	d.srv.Close()
}

func measure(conn *client.Conn, sql string, rounds int) ([]time.Duration, error) {
	durs := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := conn.Exec(sql); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(start))
	}
	return durs, nil
}

func expPassthrough(w io.Writer) error {
	d, err := newTCPDeployment()
	if err != nil {
		return err
	}
	defer d.close()
	queries := []string{
		"select 1",
		"select count(*) from stock",
		"insert stock values ('X', 1)",
	}
	fmt.Fprintf(w, "%-36s %14s %14s %10s\n", "statement", "direct", "via agent", "overhead")
	for _, q := range queries {
		direct, err := measure(d.direct, q, expRounds)
		if err != nil {
			return err
		}
		viaAg, err := measure(d.viaAg, q, expRounds)
		if err != nil {
			return err
		}
		md, ma := median(direct), median(viaAg)
		fmt.Fprintf(w, "%-36s %14v %14v %9.1f%%\n", q, md, ma,
			100*(float64(ma)-float64(md))/float64(md))
	}
	fmt.Fprintln(w, "\n(medians; pass-through adds one protocol hop, as Figure 1 predicts)")
	return nil
}

func expEndToEnd(w io.Writer) error {
	d, err := newTCPDeployment()
	if err != nil {
		return err
	}
	defer d.close()
	if err := d.viaAg.MustExec("create trigger t_add on stock for insert event addStk as print 'ran'"); err != nil {
		return err
	}
	const rounds = 500
	durs := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := d.viaAg.MustExec("insert stock values ('Y', 2)"); err != nil {
			return err
		}
		select {
		case res := <-d.agent.ActionDone:
			if res.Err != nil {
				return res.Err
			}
		case <-time.After(5 * time.Second):
			return fmt.Errorf("action timed out")
		}
		durs = append(durs, time.Since(start))
	}
	fmt.Fprintf(w, "full loop (client DML -> native trigger -> UDP -> LED -> action proc):\n")
	fmt.Fprintf(w, "  median %v over %d rounds\n", median(durs), rounds)
	return nil
}

func expNotify(w io.Writer) error {
	// UDP transport vs direct in-process delivery of the same datagram.
	mkAgent := func(notifyAddr string) (*agent.Agent, *engine.Engine, error) {
		eng := engine.New(catalog.New())
		a, err := agent.New(agent.Config{Dial: agent.LocalDialer(eng), NotifyAddr: notifyAddr, Logf: func(string, ...any) {}})
		if err != nil {
			return nil, nil, err
		}
		seed := eng.NewSession("sharma")
		if _, err := seed.ExecScript("create database db use db create table stock (symbol varchar(10), price float null)"); err != nil {
			return nil, nil, err
		}
		cs, err := a.NewClientSession("sharma", "db")
		if err != nil {
			return nil, nil, err
		}
		defer cs.Close()
		if _, err := cs.Exec("create trigger t on stock for insert event ev as print 'x'"); err != nil {
			return nil, nil, err
		}
		return a, eng, nil
	}

	run := func(label string, wire func(a *agent.Agent, eng *engine.Engine)) error {
		a, eng, err := mkAgent("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer a.Close()
		wire(a, eng)
		sess := eng.NewSession("sharma")
		_ = sess.Use("db")
		const rounds = 1000
		durs := make([]time.Duration, 0, rounds)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if _, err := sess.ExecScript("insert stock values ('A', 1)"); err != nil {
				return err
			}
			select {
			case <-a.ActionDone:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("%s: action timed out", label)
			}
			durs = append(durs, time.Since(start))
		}
		fmt.Fprintf(w, "  %-22s median %v\n", label, median(durs))
		return nil
	}

	fmt.Fprintln(w, "DML to action completion, in-process engine, by notification transport:")
	if err := run("UDP (paper's design)", func(a *agent.Agent, eng *engine.Engine) {}); err != nil {
		return err
	}
	return run("in-process delivery", func(a *agent.Agent, eng *engine.Engine) {
		eng.SetNotifier(func(h string, p int, msg string) error { a.Deliver(msg); return nil })
	})
}

func expOperators(w io.Writer) error {
	ops := []struct{ name, expr string }{
		{"OR", "e1 | e2"},
		{"AND", "e1 ^ e2"},
		{"SEQ", "e1 ; e2"},
		{"NOT", "NOT(e1, e3, e2)"},
		{"A", "A(e1, e2, e3)"},
		{"A*", "A*(e1, e2, e3)"},
	}
	fmt.Fprintf(w, "%-6s %16s\n", "op", "ns/signal")
	for _, op := range ops {
		l := led.New(led.NewManualClock(time.Unix(0, 0)))
		for _, p := range []string{"e1", "e2", "e3"} {
			if err := l.DefinePrimitive(p); err != nil {
				return err
			}
		}
		expr, err := snoop.Parse(op.expr)
		if err != nil {
			return err
		}
		if err := l.DefineComposite("c", expr); err != nil {
			return err
		}
		count := 0
		if err := l.AddRule(&led.Rule{Name: "r", Event: "c", Context: led.Chronicle,
			Action: func(*led.Occ) { count++ }}); err != nil {
			return err
		}
		const rounds = 200000
		events := []string{"e1", "e2", "e3"}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			l.Signal(led.Primitive{Event: events[i%3], VNo: i, At: time.Unix(0, int64(i))})
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%-6s %16.0f   (%d detections)\n", op.name,
			float64(elapsed.Nanoseconds())/rounds, count)
	}
	return nil
}

func expContexts(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %16s %12s\n", "context", "ns/signal", "detections")
	for _, ctx := range []led.Context{led.Recent, led.Chronicle, led.Continuous, led.Cumulative} {
		l := led.New(led.NewManualClock(time.Unix(0, 0)))
		_ = l.DefinePrimitive("e1")
		_ = l.DefinePrimitive("e2")
		expr, _ := snoop.Parse("e1 ^ e2")
		_ = l.DefineComposite("c", expr)
		count := 0
		_ = l.AddRule(&led.Rule{Name: "r", Event: "c", Context: ctx,
			Action: func(*led.Occ) { count++ }})
		const rounds = 200000
		start := time.Now()
		for i := 0; i < rounds; i++ {
			ev := "e1"
			if i%2 == 1 {
				ev = "e2"
			}
			l.Signal(led.Primitive{Event: ev, VNo: i, At: time.Unix(0, int64(i))})
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%-12s %16.0f %12d\n", ctx,
			float64(elapsed.Nanoseconds())/rounds, count)
	}
	return nil
}

func expRecovery(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %16s\n", "rules", "restart time")
	for _, n := range []int{1, 10, 50, 100} {
		eng := engine.New(catalog.New())
		quiet := func(string, ...any) {}
		a, err := agent.New(agent.Config{Dial: agent.LocalDialer(eng), NotifyAddr: "-", Logf: quiet})
		if err != nil {
			return err
		}
		seed := eng.NewSession("sharma")
		if _, err := seed.ExecScript("create database db use db create table stock (symbol varchar(10), price float null)"); err != nil {
			return err
		}
		cs, err := a.NewClientSession("sharma", "db")
		if err != nil {
			return err
		}
		if _, err := cs.Exec("create trigger t0 on stock for insert event ev0 as print 'x'"); err != nil {
			return err
		}
		for i := 1; i < n; i++ {
			if _, err := cs.Exec(fmt.Sprintf("create trigger t%d event ev0 as print 'x'", i)); err != nil {
				return err
			}
		}
		cs.Close()
		a.Close()

		start := time.Now()
		a2, err := agent.New(agent.Config{Dial: agent.LocalDialer(eng), NotifyAddr: "-", Logf: quiet})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if got := len(a2.Triggers()); got != n {
			return fmt.Errorf("restored %d of %d triggers", got, n)
		}
		a2.Close()
		fmt.Fprintf(w, "%-8d %16v\n", n, elapsed)
	}
	return nil
}

func expFanout(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %20s\n", "rules", "DML->all actions done")
	for _, k := range []int{1, 2, 4, 8, 16} {
		eng := engine.New(catalog.New())
		a, err := agent.New(agent.Config{Dial: agent.LocalDialer(eng), NotifyAddr: "-", Logf: func(string, ...any) {}})
		if err != nil {
			return err
		}
		eng.SetNotifier(func(h string, p int, msg string) error { a.Deliver(msg); return nil })
		seed := eng.NewSession("sharma")
		if _, err := seed.ExecScript("create database db use db create table stock (symbol varchar(10), price float null)"); err != nil {
			return err
		}
		cs, err := a.NewClientSession("sharma", "db")
		if err != nil {
			return err
		}
		if _, err := cs.Exec("create trigger t0 on stock for insert event ev as print 'x'"); err != nil {
			return err
		}
		for i := 1; i < k; i++ {
			if _, err := cs.Exec(fmt.Sprintf("create trigger t%d event ev as print 'x'", i)); err != nil {
				return err
			}
		}
		const rounds = 200
		start := time.Now()
		for r := 0; r < rounds; r++ {
			if _, err := cs.Exec("insert stock values ('Z', 1)"); err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				select {
				case <-a.ActionDone:
				case <-time.After(5 * time.Second):
					return fmt.Errorf("fanout action timed out")
				}
			}
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%-8d %20v\n", k, elapsed/time.Duration(rounds))
		cs.Close()
		a.Close()
	}
	return nil
}
