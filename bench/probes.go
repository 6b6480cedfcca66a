package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/cluster"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/snoop"
	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
	"github.com/activedb/ecaagent/internal/tds"
)

// The isolated probes time calls into each package's public functions on
// the workload's own statements, outside the loop: what one layer costs
// when nothing else runs. They say which layer an optimisation should aim
// at; whether it paid off is read from the end-to-end metrics.

const (
	corpusSize = 512
	probeReps  = 8
)

// probe runs fn reps times over n items and returns ns and allocations per
// item. Allocations are the process's, so only quiet probes report them.
func probe(n, reps int, fn func(i int)) (nsPer, allocsPer float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	items := float64(n * reps)
	return float64(el.Nanoseconds()) / items, float64(m1.Mallocs-m0.Mallocs) / items
}

func noNotify(string, int, string) error { return nil }

// scratch is a rule-bearing copy of the workload's schema on a private
// engine whose notifier is a no-op: statements run their native triggers,
// nothing is detected and no action follows. With tcp set the agent
// reaches the engine through a server on loopback instead of in-process.
type scratch struct {
	eng   *engine.Engine
	srv   *server.Server
	agent *agent.Agent
}

func (s *scratch) close() {
	if s.agent != nil {
		s.agent.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

func newScratch(w *workload, g *gen, tcp bool) (s *scratch, err error) {
	s = &scratch{eng: engine.New(catalog.New())}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.eng.SetNotifier(noNotify)
	dial := agent.LocalDialer(s.eng)
	if tcp {
		s.srv = server.New(s.eng)
		s.srv.Logf = func(string, ...any) {}
		if err := s.srv.Listen("127.0.0.1:0"); err != nil {
			return s, err
		}
		dial = agent.TCPDialer(s.srv.Addr())
	}
	s.agent, err = agent.New(agent.Config{Dial: dial, NotifyAddr: "-", NotifyHost: "127.0.0.1", NotifyPort: 9,
		Logf: func(string, ...any) {}})
	if err != nil {
		return s, err
	}
	cs, err := s.agent.NewClientSession(benchUser, "")
	if err != nil {
		return s, err
	}
	defer cs.Close()
	script := []string{"create database " + benchDB, "use " + benchDB}
	script = append(script, w.tables...)
	if w.rows != nil {
		for _, o := range w.rows(g) {
			script = append(script, o.sql)
		}
	}
	for _, r := range w.rules {
		script = append(script, r.sql())
	}
	for _, sql := range script {
		if _, err := cs.Exec(sql); err != nil {
			return s, fmt.Errorf("%s: %w", sql, err)
		}
	}
	return s, nil
}

func runProbes(w *workload, seed int64, tr *tracer) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name string, ns, allocs float64) {
		out[name+"_ns"] = metric{ns, "ns"}
		out[name+"_allocs"] = metric{allocs, "count"}
	}

	g := newGen(seed, 0)
	local, err := newScratch(w, g, false)
	if err != nil {
		return nil, err
	}
	defer local.close()
	corpus := make([]string, corpusSize)
	for i := range corpus {
		corpus[i] = w.gen(g, 0, i).sql
	}

	ns, allocs := probe(len(corpus), probeReps*4, func(i int) {
		if _, err := sqllex.Tokenize(corpus[i]); err != nil {
			panic(err)
		}
	})
	put("sqllex.tokenize", ns, allocs)
	ns, allocs = probe(len(corpus), probeReps*4, func(i int) {
		if _, err := sqlparse.ParseBatch(corpus[i]); err != nil {
			panic(err)
		}
	})
	put("sqlparse.parse", ns, allocs)

	// The corpus runs once per scratch engine, in generation order, so that
	// every delete finds its row wherever it is executed.
	sess := local.eng.NewSession(benchUser)
	if err := sess.Use(benchDB); err != nil {
		return nil, err
	}
	results := make([][]*sqltypes.ResultSet, len(corpus))
	var execErr error
	ns, allocs = probe(len(corpus), 1, func(i int) {
		rs, err := sess.ExecBatch(corpus[i])
		if err != nil && execErr == nil {
			execErr = fmt.Errorf("engine: %s: %w", corpus[i], err)
		}
		results[i] = rs
	})
	if execErr != nil {
		return nil, execErr
	}
	put("engine.exec", ns, allocs)

	var buf bytes.Buffer
	ns, allocs = probe(len(corpus), probeReps, func(i int) {
		buf.Reset()
		err := tds.WritePacket(&buf, tds.MarshalLanguage(corpus[i]))
		if err == nil {
			var pkt tds.Packet
			if pkt, err = tds.ReadPacket(&buf); err == nil {
				_, err = tds.UnmarshalLanguage(pkt)
			}
		}
		if err == nil {
			err = tds.WriteResults(&buf, results[i], nil)
		}
		if err == nil {
			_, err = tds.ReadResponse(&buf)
		}
		if err != nil {
			panic(err)
		}
	})
	put("tds.roundtrip", ns, allocs)

	filt, err := newScratch(w, newGen(seed, 0), false)
	if err != nil {
		return nil, err
	}
	defer filt.close()
	cs, err := filt.agent.NewClientSession(benchUser, benchDB)
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	ns, allocs = probe(len(corpus), 1, func(i int) {
		if _, err := cs.Exec(corpus[i]); err != nil && execErr == nil {
			execErr = fmt.Errorf("language filter: %s: %w", corpus[i], err)
		}
	})
	if execErr != nil {
		return nil, execErr
	}
	put("gateway.local_stmt", ns, allocs)

	if err := socketProbes(w, seed, corpus, out); err != nil {
		return nil, err
	}
	notifierProbes(tr, put)
	if err := ledProbe(w, put); err != nil {
		return nil, err
	}
	return out, durabilityProbes(out)
}

// socketProbes sends the corpus over loopback TCP twice, interleaved
// statement by statement: straight to one scratch server, and through a
// scratch agent's gateway to a second scratch server in the same state.
func socketProbes(w *workload, seed int64, corpus []string, out map[string]metric) error {
	direct, err := newScratch(w, newGen(seed, 0), true)
	if err != nil {
		return err
	}
	defer direct.close()
	via, err := newScratch(w, newGen(seed, 0), true)
	if err != nil {
		return err
	}
	defer via.close()
	if err := via.agent.ListenGateway("127.0.0.1:0"); err != nil {
		return err
	}
	opts := client.Options{User: benchUser, Database: benchDB}
	dc, err := client.Connect(direct.srv.Addr(), opts)
	if err != nil {
		return err
	}
	defer dc.Close()
	gc, err := client.Connect(via.agent.GatewayAddr(), opts)
	if err != nil {
		return err
	}
	defer gc.Close()
	var directUs, viaUs []float64
	for _, sql := range corpus {
		t0 := time.Now()
		if err := dc.MustExec(sql); err != nil {
			return fmt.Errorf("direct: %s: %w", sql, err)
		}
		t1 := time.Now()
		if err := gc.MustExec(sql); err != nil {
			return fmt.Errorf("gateway: %s: %w", sql, err)
		}
		directUs = append(directUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		viaUs = append(viaUs, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	d50, v50 := p50(directUs), p50(viaUs)
	out["server.direct_stmt_p50_us"] = metric{d50, "us"}
	out["gateway.tcp_stmt_p50_us"] = metric{v50, "us"}
	out["gateway.overhead_ratio"] = metric{v50 / d50, "ratio"}
	return nil
}

// notifierProbes decode the run's own datagrams, as text (what the
// generated triggers send) and re-encoded as ECB1 binary frames.
func notifierProbes(tr *tracer, put func(string, float64, float64)) {
	tr.mu.Lock()
	datagrams := tr.datagrams
	tr.mu.Unlock()
	frames := make([][]byte, len(datagrams))
	n := 0
	emit := func(led.Primitive) { n++ }
	for i, d := range datagrams {
		var prims []led.Primitive
		agent.DecodeBatchBytes(d, func(p led.Primitive) { prims = append(prims, p) }, func(error) {})
		f, err := agent.EncodeBinaryBatch(prims)
		if err != nil {
			panic(err)
		}
		frames[i] = f
	}
	if len(datagrams) == 0 {
		put("notifier.decode_text", 0, 0)
		put("notifier.decode_ecb1", 0, 0)
		return
	}
	ns, allocs := probe(len(datagrams), probeReps*8, func(i int) {
		agent.DecodeBatchBytes(datagrams[i], emit, func(error) {})
	})
	put("notifier.decode_text", ns, allocs)
	ns, allocs = probe(len(frames), probeReps*8, func(i int) {
		if _, err := agent.DecodeBinaryBatch(frames[i], emit); err != nil {
			panic(err)
		}
	})
	put("notifier.decode_ecb1", ns, allocs)
}

// ledProbe signals the workload's occurrence sequence into a standalone
// detector holding the workload's rule graph with empty actions.
func ledProbe(w *workload, put func(string, float64, float64)) error {
	l := led.New(led.SystemClock())
	fired := 0
	for _, r := range w.rules {
		ev := internalName(r.event)
		switch {
		case r.table != "":
			if err := l.DefinePrimitive(ev); err != nil {
				return err
			}
		case r.expr != "":
			expr, err := snoop.Parse(r.expr)
			if err != nil {
				return err
			}
			snoop.Walk(expr, func(e snoop.Expr) {
				if ref, ok := e.(*snoop.EventRef); ok {
					ref.Name = internalName(ref.Name)
				}
			})
			if err := l.DefineComposite(ev, expr); err != nil {
				return err
			}
		}
		ctx := led.Recent
		if r.context != "" {
			var err error
			if ctx, err = led.ParseContext(r.context); err != nil {
				return err
			}
		}
		if err := l.AddRule(&led.Rule{Name: internalName(r.name), Event: ev, Context: ctx,
			Priority: r.priority, Action: func(*led.Occ) { fired++ }}); err != nil {
			return err
		}
	}
	type sig struct{ event, table, op string }
	tableOf := map[string]sig{}
	for _, r := range w.rules {
		if r.table != "" {
			tableOf[r.event] = sig{internalName(r.event), internalName(r.table), r.op}
		}
	}
	var seq []sig
	for idx := 0; len(seq) < corpusSize && idx < corpusSize*40; idx++ {
		for c := 0; c < w.conns; c++ {
			if ev, _ := w.fires(c, idx); ev != "" {
				seq = append(seq, tableOf[ev])
			}
		}
	}
	vno := map[string]int{}
	ns, allocs := probe(len(seq), probeReps*8, func(i int) {
		s := seq[i]
		vno[s.event]++
		l.Signal(led.Primitive{Event: s.event, Table: s.table, Op: s.op, VNo: vno[s.event]})
	})
	l.Wait()
	if fired == 0 {
		return fmt.Errorf("led probe: no rule fired")
	}
	put("led.signal", ns, allocs)
	return nil
}

// durabilityProbes time the two things durable_sync pays per occurrence,
// on this host and outside the loop: an fsynced 64-byte append, and one
// frame shipped to a loopback standby and acknowledged.
func durabilityProbes(out map[string]metric) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	record := bytes.Repeat([]byte{'r'}, 64)

	f, err := storage.OSDir{Dir: filepath.Join(dir, "wal")}.Create("probe.wal")
	if err != nil {
		return err
	}
	var syncUs []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := f.Write(record); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		syncUs = append(syncUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	if err := f.Close(); err != nil {
		return err
	}
	out["durable.fs_sync_probe_us"] = metric{p50(syncUs), "us"}

	ap := cluster.NewApplier(storage.OSDir{Dir: filepath.Join(dir, "standby")}, nil)
	defer ap.Close()
	addr, stop, err := cluster.ListenStandby("127.0.0.1:0", ap)
	if err != nil {
		return err
	}
	defer stop()
	sh := cluster.NewShipper(cluster.ShipperConfig{Addr: addr, Node: "probe", SyncWindow: 4}, nil)
	defer sh.Close()
	if err := sh.Ship(cluster.Frame{Kind: cluster.FrameFileOpen, Name: "wal-1"}); err != nil {
		return err
	}
	var ackUs []float64
	for i := 0; i < 300; i++ {
		start := time.Now()
		if err := sh.Ship(cluster.Frame{Kind: cluster.FrameFileData, Name: "wal-1", Payload: record}); err != nil {
			return err
		}
		if err := sh.Barrier(); err != nil {
			return err
		}
		ackUs = append(ackUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	out["cluster.ship_barrier_probe_p50_us"] = metric{p50(ackUs), "us"}
	out["cluster.ship_barrier_probe_p99_us"] = metric{p99(ackUs), "us"}
	return nil
}
