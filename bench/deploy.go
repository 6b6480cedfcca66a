package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/cluster"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/storage"
)

// scratchRoot is where durable_sync keeps its primary and standby
// directories: inside the checkout the benchmark runs from, because the
// benchmark may write nowhere else.
const scratchRoot = ".bench_build"

// deployment is the paper's Figure 1/4 deployment in one process over real
// loopback sockets: SQL server on TCP, ECA agent gateway on TCP, UDP
// notifier, and for durable_sync a replication standby on TCP.
type deployment struct {
	srv   *server.Server
	agent *agent.Agent
	conns []*client.Conn // the load generator's gateway connections
	admin *client.Conn   // direct server connection, for the output checks
	rows  []op           // the initial rows set-up inserted

	// The agent's diagnostics are counted, and the first few kept to explain
	// a failed check.
	logMu    sync.Mutex
	logCount int
	logLines []string

	// durable_sync only
	dataDir     string
	standbyFS   storage.FS
	shipper     *cluster.Shipper
	ctl         *cluster.SyncController
	applier     *cluster.Applier
	stopStandby func()
}

func (d *deployment) logf(format string, args ...any) {
	d.logMu.Lock()
	d.logCount++
	if len(d.logLines) < 8 {
		d.logLines = append(d.logLines, fmt.Sprintf(format, args...))
	}
	d.logMu.Unlock()
}

// logs returns how many diagnostics the agent has logged and the first few
// of them, joined.
func (d *deployment) logs() (int, string) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.logCount, strings.Join(d.logLines, "; ")
}

// deploy listens, connects, and creates the schema and rules of w through
// the gateway, exactly as a client application would. tr is nil for an
// untraced run; otherwise every seam the benchmark owns is wrapped.
func deploy(w *workload, g0 *gen, tr *tracer) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	eng := engine.New(catalog.New())
	if tr != nil {
		eng.SetNotifier(tr.notifier(engine.UDPNotifier()))
	}
	d.srv = server.New(eng)
	d.srv.Logf = func(string, ...any) {}
	if err := d.srv.Listen("127.0.0.1:0"); err != nil {
		return d, err
	}

	cfg := agent.Config{
		Dial: agent.TCPDialer(d.srv.Addr()),
		Logf: d.logf,
		// ecaagent's default. A run is shorter than this, so the sweep never
		// runs inside one; settle calls Resync itself if a trailing datagram
		// was lost.
		ResyncInterval: 30 * time.Second,
		// ActionDone is how the benchmark observes completions; a dropped
		// report would read as a lost action.
		ActionBuffer: 1024,
	}
	if tr != nil {
		cfg.Dial = tr.dialer(cfg.Dial)
		cfg.Forward = tr.forward
	}
	if w.durable {
		if err := d.wireSyncPair(&cfg, tr); err != nil {
			return d, err
		}
	}
	if d.agent, err = agent.New(cfg); err != nil {
		return d, err
	}
	if err := d.agent.ListenGateway("127.0.0.1:0"); err != nil {
		return d, err
	}

	for c := 0; c < w.conns; c++ {
		conn, err := client.Connect(d.agent.GatewayAddr(), client.Options{User: benchUser})
		if err != nil {
			return d, err
		}
		d.conns = append(d.conns, conn)
	}
	if err := d.conns[0].MustExec("create database " + benchDB); err != nil {
		return d, err
	}
	for _, c := range d.conns {
		if err := c.MustExec("use " + benchDB); err != nil {
			return d, err
		}
	}
	for _, t := range w.tables {
		if err := d.conns[0].MustExec(t); err != nil {
			return d, fmt.Errorf("%s: %w", t, err)
		}
	}
	if w.rows != nil {
		d.rows = w.rows(g0)
	}
	for _, o := range d.rows {
		if err := d.conns[0].MustExec(o.sql); err != nil {
			return d, fmt.Errorf("%s: %w", o.sql, err)
		}
	}
	for _, r := range w.rules {
		if err := d.conns[0].MustExec(r.sql()); err != nil {
			return d, fmt.Errorf("%s: %w", r.sql(), err)
		}
	}
	d.admin, err = client.Connect(d.srv.Addr(), client.Options{User: benchUser, Database: benchDB})
	return d, err
}

// wireSyncPair is the RPO=0 configuration of `ecaagent -repl-mode sync
// -wal-sync always` (cmd/ecaagent/cluster.go), without fencing and
// heartbeats: the WAL is teed through a ShipFS whose sink ships and
// barriers every frame, and each occurrence additionally waits on the
// SyncController's barrier before it is signalled.
func (d *deployment) wireSyncPair(cfg *agent.Config, tr *tracer) error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "durable-*")
	if err != nil {
		return err
	}
	d.dataDir = dir
	d.standbyFS = unflushedFS{storage.OSDir{Dir: filepath.Join(dir, "standby")}}
	d.applier = cluster.NewApplier(d.standbyFS, nil)
	addr, stop, err := cluster.ListenStandby("127.0.0.1:0", d.applier)
	if err != nil {
		return err
	}
	d.stopStandby = stop

	var local storage.FS = unflushedFS{storage.OSDir{Dir: filepath.Join(dir, "primary")}}
	if tr != nil {
		local = tr.fs(local)
	}
	sink := func(f cluster.Frame) error {
		var start int64
		if tr != nil {
			start = tr.now()
		}
		err := d.shipper.Ship(f)
		if err == nil {
			err = d.shipper.Barrier()
		}
		d.ctl.ObserveShip(err)
		if tr != nil {
			tr.shipped(len(f.Payload), tr.now()-start)
		}
		return err
	}
	ship := cluster.NewShipFS(local, sink, nil, nil)
	d.shipper = cluster.NewShipper(cluster.ShipperConfig{
		Addr: addr, Node: "bench", Snapshot: ship.SnapshotFrames,
		SyncWindow: 4, AckTimeout: 2 * time.Second, // ecaagent's defaults
	}, nil)
	d.ctl = cluster.NewSyncController(cluster.SyncConfig{Mode: cluster.ReplModeSync}, d.shipper.Barrier, nil)
	barrier := d.ctl.Barrier
	if tr != nil {
		barrier = tr.barrier(barrier)
	}
	cfg.Durability = &agent.Durability{
		FS:                 ship,
		WALSync:            agent.WALSyncAlways,
		CheckpointInterval: 30 * time.Second, // ecaagent's default
		ShipBarrier:        barrier,
	}
	return nil
}

// unflushedFS is a real directory whose Sync and SyncDir return at once.
// durable_sync writes every WAL byte, calls every fsync and takes every
// ship and acknowledgement step through it, but does not wait for the
// device: on the shared reference host one fsync takes 0.3 ms in one run
// and 10 ms in the next (ten runs of one commit read 1.4-9.9 ms per
// reaction), which is the disk's other users and nothing a commit can
// move. The fsyncs are counted (durable.fs_syncs_per_occ) and one on the
// real disk is timed apart (durable.fs_sync_probe_us).
type unflushedFS struct{ storage.FS }

func (u unflushedFS) Create(name string) (storage.File, error) {
	f, err := u.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return unflushedFile{f}, nil
}

func (unflushedFS) SyncDir() error { return nil }

type unflushedFile struct{ storage.File }

func (unflushedFile) Sync() error { return nil }

// close stops everything deploy started and waits for it, in dependency
// order; it is safe on a partly built deployment.
func (d *deployment) close() {
	for _, c := range d.conns {
		c.Close()
	}
	if d.admin != nil {
		d.admin.Close()
	}
	if d.agent != nil {
		d.agent.Close()
	}
	if d.shipper != nil {
		d.shipper.Close()
	}
	if d.stopStandby != nil {
		d.stopStandby()
	}
	if d.applier != nil {
		d.applier.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

// removeData deletes durable_sync's directories; separate from close
// because the standby check reads them after the agent has stopped.
func (d *deployment) removeData() {
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// scalar runs a one-value query on the direct server connection.
func (d *deployment) scalar(sql string) (float64, error) {
	rs, err := d.admin.Query(sql)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sql, err)
	}
	if len(rs.Rows) != 1 || len(rs.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: want one value, got %d rows", sql, len(rs.Rows))
	}
	v := rs.Rows[0][0]
	if v.IsNull() {
		return 0, nil
	}
	if f, ok := v.AsFloat(); ok {
		return f, nil
	}
	return 0, fmt.Errorf("%s: non-numeric result %v", sql, v)
}
