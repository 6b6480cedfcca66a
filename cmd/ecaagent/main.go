// Command ecaagent runs the ECA Agent mediator of the paper: it connects
// to a running sqlserverd, restores any persisted ECA rules, and serves
// clients on its gateway address with full transparency — clients use the
// same protocol, and the same client library, as against the server
// itself.
//
// Usage:
//
//	ecaagent -server 127.0.0.1:5000 [-listen 127.0.0.1:6000]
//	         [-notify 127.0.0.1:0] [-admin dbo] [-http 127.0.0.1:6060]
//	         [-retry-attempts 4] [-retry-base 25ms] [-retry-max 1s]
//	         [-attempt-timeout 30s] [-resync 30s] [-drain 15s] [-dlq 128]
//	         [-checkpoint-dir dir] [-checkpoint-interval 30s] [-wal-sync always]
//	         [-site name -ged host:port]
//	         [-cluster-node name -repl-ship host:port | -repl-listen host:port]
//	         [-heartbeat-interval 500ms] [-heartbeat-misses 3]
//	         [-repl-mode async|sync] [-repl-degrade async|halt]
//	         [-repl-sync-window 4] [-repl-ack-timeout 2s] [-repl-grace 10s]
//	         [-authority-server host:port] [-authority-lease 5s]
//
// The -repl-ship / -repl-listen pair forms a replicated hot pair: the
// primary streams its durable state (checkpoints, WAL, heartbeats) to the
// standby, which promotes itself — boots the agent over the replicated
// directory — when the heartbeats stop. With
// -repl-mode sync an occurrence is acknowledged (and its actions launched)
// only after the standby durably applied its journal record: RPO=0, at
// the price of a standby round-trip on the occurrence path. -authority-server
// moves the fencing epoch into a leased row in the shared SQL server so a
// partitioned old primary's actions are rejected and dead-lettered. See
// cluster.go and DESIGN.md §10.
//
// The -http address serves the observability surface: /metrics (Prometheus
// text format), /healthz, /stats (JSON), /eventgraph (Graphviz dot), and
// /debug/pprof.
//
// With -checkpoint-dir set the agent is crash-safe: detector state is
// checkpointed there, accepted occurrences and completed actions are
// journaled in between, and a restart replays the journal over the latest
// checkpoint before gap-filling from the shadow tables — an exactly-once
// action stream across crashes under -wal-sync always; -wal-sync none
// skips the journal fsync and degrades to at-least-once (see DESIGN.md §8
// for the guarantee matrix).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/cluster"
	"github.com/activedb/ecaagent/internal/ged"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
)

func main() {
	serverAddr := flag.String("server", "127.0.0.1:5000", "address of the SQL server")
	listen := flag.String("listen", "127.0.0.1:6000", "gateway address clients connect to")
	notify := flag.String("notify", "127.0.0.1:0", "UDP address for trigger notifications")
	admin := flag.String("admin", "dbo", "privileged login for the persistent manager")
	retryAttempts := flag.Int("retry-attempts", 4, "attempts per upstream batch before giving up")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "first retry backoff (doubles per retry)")
	retryMax := flag.Duration("retry-max", time.Second, "retry backoff cap")
	attemptTimeout := flag.Duration("attempt-timeout", 30*time.Second, "per-attempt upstream deadline (0 disables)")
	resync := flag.Duration("resync", 30*time.Second, "period of the notification-loss recovery sweep (0 disables)")
	drain := flag.Duration("drain", 15*time.Second, "shutdown deadline for in-flight rule actions")
	dlqLimit := flag.Int("dlq", 128, "dead-letter queue capacity for failed rule actions")
	ckptDir := flag.String("checkpoint-dir", "", "directory for durable checkpoints and the occurrence journal (empty disables crash safety)")
	ckptInterval := flag.Duration("checkpoint-interval", 30*time.Second, "period of the background checkpoint loop (0 = checkpoint only on shutdown)")
	walSync := flag.String("wal-sync", agent.WALSyncAlways, "journal sync policy: always (exactly-once, one fsync per record), none (at-least-once)")
	site := flag.String("site", "", "site name for global event forwarding")
	gedAddr := flag.String("ged", "", "address of a global event detector to forward to")
	httpAddr := flag.String("http", "", "admin HTTP address for /metrics, /stats, /eventgraph, /debug/pprof (empty disables)")
	var cf clusterFlags
	registerClusterFlags(&cf)
	flag.Parse()
	cf.validate(*ckptDir)

	cfg := agent.Config{
		Dial:       agent.TCPDialer(*serverAddr),
		AdminUser:  *admin,
		NotifyAddr: *notify,
		Retry: agent.RetryConfig{
			MaxAttempts:    *retryAttempts,
			BaseDelay:      *retryBase,
			MaxDelay:       *retryMax,
			AttemptTimeout: *attemptTimeout,
		},
		ResyncInterval:  *resync,
		DrainTimeout:    *drain,
		DeadLetterLimit: *dlqLimit,
	}
	if *ckptDir != "" {
		switch *walSync {
		case agent.WALSyncAlways, agent.WALSyncNone:
		default:
			log.Fatalf("ecaagent: -wal-sync must be always or none (got %q)", *walSync)
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatalf("ecaagent: -checkpoint-dir: %v", err)
		}
		cfg.Durability = &agent.Durability{
			Dir:                *ckptDir,
			CheckpointInterval: *ckptInterval,
			WALSync:            *walSync,
		}
	}

	// Cluster mode. A standby blocks here applying the primary's stream
	// until promotion (or a signal); a primary tees its durability layer
	// through the replication shipper. Both register the eca_cluster_*
	// instruments on the same registry the agent's /metrics serves.
	var cmet *cluster.Metrics
	var repl *primaryReplication
	if cf.active() {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		cmet = cluster.NewMetrics(reg)
		var floorEpoch uint64
		if cf.listen != "" {
			floorEpoch = runStandbyPhase(&cf, *ckptDir, *httpAddr, reg, cmet)
		}
		if cf.ship != "" {
			repl = wirePrimaryReplication(&cf, &cfg, *ckptDir, *admin, floorEpoch, cmet)
			defer repl.stop()
		} else if cf.listen != "" {
			// Promoted with no onward standby: serve as a plain primary,
			// still fenced — the promotion must supersede the dead
			// primary's epoch on the shared authority before acting.
			auth, epoch, closeAuth := newAuthority(&cf, *admin, floorEpoch, cmet)
			defer closeAuth()
			tok := &cluster.Token{}
			tok.Set(epoch)
			cfg.Dial = cluster.FencedDialer(cfg.Dial, auth, tok, cmet)
			cmet.SetRole(cluster.RolePrimary)
		}
	}
	if *gedAddr != "" {
		if *site == "" {
			log.Fatal("ecaagent: -ged requires -site")
		}
		fwd, err := ged.Forwarder(*site, *gedAddr)
		if err != nil {
			log.Fatalf("ecaagent: %v", err)
		}
		cfg.Forward = func(p led.Primitive) {
			if err := fwd(p); err != nil {
				log.Printf("ecaagent: forwarding to GED: %v", err)
			}
		}
	}

	a, err := agent.New(cfg)
	if err != nil {
		log.Fatalf("ecaagent: %v", err)
	}
	defer a.Close()
	if cmet != nil {
		a.SetRoleFunc(cmet.Role)
		if repl != nil {
			repl.start(a)
		}
	}
	if err := a.ListenGateway(*listen); err != nil {
		log.Fatalf("ecaagent: %v", err)
	}
	host, port := a.NotifyEndpoint()
	fmt.Printf("ecaagent: gateway %s, server %s, notifications %s\n",
		a.GatewayAddr(), *serverAddr, net.JoinHostPort(host, strconv.Itoa(port)))
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("ecaagent: admin http: %v", err)
		}
		fmt.Printf("ecaagent: admin http://%s/ (metrics, stats, eventgraph, debug/pprof)\n", ln.Addr())
		srv := &http.Server{Handler: a.AdminHandler()}
		defer srv.Close()
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("ecaagent: admin http: %v", err)
			}
		}()
	}
	if events := a.Events(); len(events) > 0 {
		fmt.Printf("ecaagent: restored %d events, %d triggers\n", len(events), len(a.Triggers()))
	}

	// Drain action reports to the log so operators can see rules firing.
	go func() {
		for res := range a.ActionDone {
			if res.Err != nil {
				log.Printf("ecaagent: rule %s on %s FAILED: %v", res.Rule, res.Event, res.Err)
				continue
			}
			log.Printf("ecaagent: rule %s fired on %s (%d constituents)",
				res.Rule, res.Event, len(res.Occ.Constituents))
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("ecaagent: shutting down")
}
