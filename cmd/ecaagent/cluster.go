// Cluster mode: the same binary plays primary or standby in the hot-pair
// deployment internal/cluster implements.
//
//   - Primary (-repl-ship addr): the durability layer's filesystem is teed
//     through a ShipFS, so every checkpoint byte and WAL record the agent
//     makes durable locally is also framed and streamed to the standby,
//     along with heartbeats. Ship failures degrade replication (counted,
//     logged), never local durability.
//   - Standby (-repl-listen addr): the process applies the primary's
//     stream into -checkpoint-dir and watches the heartbeat cadence.
//     When the configured number of consecutive intervals pass without a
//     beat, it promotes: it stops replicating and boots the ordinary
//     agent over the replicated directory — checkpoint restore, journal
//     replay and the shadow-table resync do the actual recovery work.
//
// Fencing note: by default the epoch registry is in-process and protects a
// single machine. A deployment where the old primary may still be alive
// should set -authority-server so cluster.Authority is backed by shared
// state — a leased epoch row in the SQL server both nodes already talk to
// — and every upstream action is fenced against it: a partitioned zombie's
// actions are rejected and dead-lettered, and the zombie self-fences when
// its lease lapses; see DESIGN.md §10.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/cluster"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/storage"
)

// clusterFlags collects the cluster-mode command line.
type clusterFlags struct {
	node       string
	ship       string
	listen     string
	hbInterval time.Duration
	hbMisses   int

	replMode    string
	replDegrade string
	syncWindow  int
	ackTimeout  time.Duration
	grace       time.Duration

	authServer string
	authLease  time.Duration
}

func registerClusterFlags(cf *clusterFlags) {
	flag.StringVar(&cf.node, "cluster-node", "", "this node's name in the cluster (required with -repl-ship / -repl-listen)")
	flag.StringVar(&cf.ship, "repl-ship", "", "primary mode: stream checkpoints, WAL and heartbeats to the standby at this address")
	flag.StringVar(&cf.listen, "repl-listen", "", "standby mode: apply a primary's replication stream from this address, promote when its heartbeats stop")
	flag.DurationVar(&cf.hbInterval, "heartbeat-interval", 500*time.Millisecond, "heartbeat period (primary) and silence-check cadence (standby)")
	flag.IntVar(&cf.hbMisses, "heartbeat-misses", 3, "consecutive silent intervals before the standby suspects the primary")
	flag.StringVar(&cf.replMode, "repl-mode", cluster.ReplModeAsync,
		"replication acknowledgement mode: async (fire-and-forget, RPO = in-flight tail) or sync (occurrences acknowledged only after the standby's durable ack, RPO=0)")
	flag.StringVar(&cf.replDegrade, "repl-degrade", cluster.DegradeAsync,
		"sync-mode policy when the standby stops acknowledging: async (degrade loudly, keep serving) or halt (fence the durability path until the link heals)")
	flag.IntVar(&cf.syncWindow, "repl-sync-window", 4, "sync mode: max in-flight (shipped, unacknowledged) frames before Ship blocks")
	flag.DurationVar(&cf.ackTimeout, "repl-ack-timeout", 2*time.Second, "sync mode: per-record deadline for the standby's durable ack")
	flag.DurationVar(&cf.grace, "repl-grace", 10*time.Second, "sync mode: how long a degraded link may stay degraded before /readyz fails")
	flag.StringVar(&cf.authServer, "authority-server", "",
		"SQL server holding the shared fencing-epoch row (empty: in-process registry, single-machine only); every upstream action is fenced against it")
	flag.DurationVar(&cf.authLease, "authority-lease", 5*time.Second, "lease TTL on the SQL epoch row; an unrenewable holder self-fences when it lapses")
}

func (cf *clusterFlags) active() bool { return cf.ship != "" || cf.listen != "" }

func (cf *clusterFlags) validate(ckptDir string) {
	if !cf.active() {
		return
	}
	if cf.node == "" {
		log.Fatal("ecaagent: -cluster-node is required with -repl-ship / -repl-listen")
	}
	if ckptDir == "" {
		log.Fatal("ecaagent: cluster replication requires -checkpoint-dir (the replicated state lives there)")
	}
	switch cf.replMode {
	case cluster.ReplModeAsync, cluster.ReplModeSync:
	default:
		log.Fatalf("ecaagent: -repl-mode must be async or sync (got %q)", cf.replMode)
	}
	switch cf.replDegrade {
	case cluster.DegradeAsync, cluster.DegradeHalt:
	default:
		log.Fatalf("ecaagent: -repl-degrade must be async or halt (got %q)", cf.replDegrade)
	}
	if cf.replMode == cluster.ReplModeSync && cf.ship == "" {
		log.Fatal("ecaagent: -repl-mode sync requires -repl-ship (there is no standby to synchronize with)")
	}
}

// newAuthority builds the fencing authority: the epoch row in the shared
// SQL server when -authority-server is set (the deployment where the old
// primary may still be alive), otherwise the in-process registry (single
// machine only — see the fencing note above). floorEpoch is the dead
// primary's last announced epoch after a promotion; the new grant must
// supersede it, so Acquire repeats until it does (each call increments).
func newAuthority(cf *clusterFlags, adminUser string, floorEpoch uint64, met *cluster.Metrics) (auth cluster.Authority, epoch uint64, closeAuth func()) {
	closeAuth = func() {}
	if cf.authServer != "" {
		conn, err := client.Connect(cf.authServer, client.Options{User: adminUser, Timeout: 5 * time.Second})
		if err != nil {
			log.Fatalf("ecaagent: connecting to authority server %s: %v", cf.authServer, err)
		}
		sa, err := cluster.NewSQLAuthority(cluster.SQLAuthorityConfig{
			Exec:     conn,
			Node:     cf.node,
			LeaseTTL: cf.authLease,
			Logf:     log.Printf,
			Met:      met,
		})
		if err != nil {
			log.Fatalf("ecaagent: SQL epoch authority: %v", err)
		}
		auth = sa
		closeAuth = func() { sa.Close(); conn.Close() }
	} else {
		auth = cluster.NewEpochRegistry()
	}
	for {
		e, err := auth.Acquire(cf.node)
		if err != nil {
			closeAuth()
			log.Fatalf("ecaagent: acquiring fencing epoch: %v", err)
		}
		if e > floorEpoch {
			return auth, e, closeAuth
		}
	}
}

// runStandbyPhase applies the primary's stream until the missed-heartbeat
// threshold promotes this node (returns the highest fencing epoch the dead
// primary announced) or a signal stops the process. It runs before the
// agent exists; httpAddr, when set, serves a minimal probe surface
// (/livez, /readyz reporting "standby", /metrics) in the meantime.
func runStandbyPhase(cf *clusterFlags, ckptDir, httpAddr string, reg *obs.Registry, met *cluster.Metrics) (peerEpoch uint64) {
	met.SetRole(cluster.RoleStandby)
	ap := cluster.NewApplier(storage.OSDir{Dir: ckptDir}, met)
	promoted := make(chan struct{})
	mon := cluster.NewMonitor(cluster.MonitorConfig{
		Clock:    led.SystemClock(),
		Interval: cf.hbInterval,
		Misses:   cf.hbMisses,
	}, met, func() { close(promoted) })
	// Arm failure detection only once a primary has spoken: a standby that
	// boots first must wait for its primary, not promote over silence that
	// was never preceded by life.
	var arm sync.Once
	ap.OnHeartbeat = func(seq, epoch uint64) {
		arm.Do(mon.Start)
		mon.Beat(seq, epoch)
	}

	addr, stopListen, err := cluster.ListenStandby(cf.listen, ap)
	if err != nil {
		log.Fatalf("ecaagent: standby listener: %v", err)
	}
	log.Printf("ecaagent: standby %s: replicating into %s from %s (promote after %d×%s of silence)",
		cf.node, ckptDir, addr, cf.hbMisses, cf.hbInterval)

	var srv *http.Server
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			log.Fatalf("ecaagent: standby http: %v", err)
		}
		srv = &http.Server{Handler: standbyHandler(reg, met)}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("ecaagent: standby http: %v", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-promoted:
	case <-stop:
		log.Printf("ecaagent: standby shutting down")
		mon.Stop()
		stopListen()
		if err := ap.Close(); err != nil {
			log.Printf("ecaagent: standby close: %v", err)
		}
		os.Exit(0)
	}
	signal.Stop(stop)

	// Promotion: stop replicating, release the probe port for the real
	// admin server, and let the ordinary boot path recover from the
	// replicated directory.
	mon.Stop()
	stopListen()
	if err := ap.Close(); err != nil {
		log.Printf("ecaagent: promoting with close error: %v", err)
	}
	if srv != nil {
		srv.Close()
	}
	met.SetRole(cluster.RolePromoting)
	met.Promotions.Inc()
	peer, epoch := ap.Peer()
	log.Printf("ecaagent: standby %s: primary %s went silent (epoch %d) — promoting", cf.node, peer, epoch)
	return epoch
}

// standbyHandler is the pre-promotion observability surface: liveness,
// a readiness probe that fails until promotion, and the cluster
// metrics.
func standbyHandler(reg *obs.Registry, met *cluster.Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	live := func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}
	mux.HandleFunc("/livez", live)
	mux.HandleFunc("/healthz", live)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(met.Role() + "\n"))
	})
	return mux
}

// primaryReplication is the primary-side cluster wiring hung off the
// agent's config.
type primaryReplication struct {
	shipper   *cluster.Shipper
	hb        *cluster.Heartbeater
	ship      *cluster.ShipFS
	ctl       *cluster.SyncController // nil in async mode
	met       *cluster.Metrics
	closeAuth func()
	done      chan struct{} // closed by stop; ends watchLag
}

// wirePrimaryReplication tees cfg.Durability through a ShipFS streaming to
// the standby and prepares the heartbeat beacon (started once the agent
// is up). floorEpoch carries the dead primary's epoch across a promotion
// so the new primary's announcements supersede it.
//
// Every upstream action runs behind a FencedDialer on the acquired epoch:
// with -authority-server that epoch lives in the shared SQL server and a
// partitioned old primary's actions are rejected (and dead-lettered) the
// moment a successor acquires or its own lease lapses.
//
// In -repl-mode sync the ShipFS tees into the controller's sink
// (cluster.SyncController.Sink): while the link is healthy every frame is
// shipped and barriered, so the durable append does not return until the
// standby has acknowledged, and the agent's occurrence path takes the
// controller's barrier before any acknowledgement or action launch. The
// degradation ladder is the controller's: sync → degraded-async (loud,
// readiness fails past -repl-grace, frames ship without waiting until the
// standby has caught up) or → fenced halt, per -repl-degrade. Heartbeats
// go through the same sink, so an idle primary still notices the
// standby's silence and its return.
func wirePrimaryReplication(cf *clusterFlags, cfg *agent.Config, ckptDir, adminUser string, floorEpoch uint64, met *cluster.Metrics) *primaryReplication {
	auth, epoch, closeAuth := newAuthority(cf, adminUser, floorEpoch, met)
	tok := &cluster.Token{}
	tok.Set(epoch)
	cfg.Dial = cluster.FencedDialer(cfg.Dial, auth, tok, met)

	p := &primaryReplication{met: met, closeAuth: closeAuth, done: make(chan struct{})}
	var ship *cluster.ShipFS
	shipCfg := cluster.ShipperConfig{
		Addr:     cf.ship,
		Node:     cf.node,
		Tok:      tok,
		Snapshot: func() ([]cluster.Frame, error) { return ship.SnapshotFrames() },
	}
	if cf.replMode == cluster.ReplModeSync {
		shipCfg.SyncWindow = cf.syncWindow
		shipCfg.AckTimeout = cf.ackTimeout
	}
	sh := cluster.NewShipper(shipCfg, met)
	p.shipper = sh
	sink := sh.Ship
	if cf.replMode == cluster.ReplModeSync {
		p.ctl = cluster.NewSyncController(cluster.SyncConfig{
			Mode:    cluster.ReplModeSync,
			Degrade: cf.replDegrade,
			Grace:   cf.grace,
			Logf:    log.Printf,
		}, sh.Barrier, met)
		sink = p.ctl.Sink(sh)
		cfg.Durability.ShipBarrier = p.ctl.Barrier
	}
	ship = cluster.NewShipFS(storage.OSDir{Dir: ckptDir}, sink, nil, met)
	p.ship = ship

	cfg.Durability.FS = ship
	met.SetRole(cluster.RolePrimary)
	hb := cluster.NewHeartbeater(led.SystemClock(), cf.hbInterval, tok, sink, met)
	p.hb = hb
	return p
}

// start begins heartbeating (the first beat dials and re-ships the
// snapshot, so a standby attached later still converges) and, in sync
// mode, gates the agent's readiness on the replication link's health.
func (p *primaryReplication) start(a *agent.Agent) {
	if p.ctl != nil {
		a.SetReadinessGate(p.ctl.Ready)
	}
	p.hb.Start()
	go p.watchLag()
}

// watchLag logs transitions of the replication link so operators see a
// detached standby without scraping metrics.
func (p *primaryReplication) watchLag() {
	healthy := true
	t := time.NewTicker(5 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		err := p.ship.Err()
		if err != nil && healthy {
			log.Printf("ecaagent: replication degraded (local durability unaffected): %v", err)
			healthy = false
		} else if err == nil && !healthy {
			log.Printf("ecaagent: replication recovered")
			healthy = true
		}
	}
}

func (p *primaryReplication) stop() {
	close(p.done)
	p.hb.Stop()
	p.shipper.Close()
	p.closeAuth()
}
