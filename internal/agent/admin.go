package agent

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"github.com/activedb/ecaagent/internal/obs"
)

// AdminHandler serves the agent's observability surface on a private mux:
//
//	/metrics     Prometheus text exposition (format 0.0.4)
//	/livez       liveness probe ("ok" whenever the process serves HTTP)
//	/readyz      readiness probe: 200 with the node state when the agent
//	             may receive notifications, 503 with "recovering" while
//	             startup recovery is still replaying (or "standby" when a
//	             cluster role function says this node must not ingest)
//	/healthz     legacy alias for /livez
//	/stats       JSON snapshot of Stats plus latency histograms
//	/eventgraph  the LED's event graph in Graphviz dot form
//	/debug/pprof runtime profiling (CPU, heap, goroutines, trace)
//
// Liveness and readiness are deliberately split: a node mid-recovery (or a
// cluster standby) is alive — restarting it would only lose progress — but
// a load balancer must not send it notifications yet. Before
// this split /healthz was a flat "ok" and a balancer had no way to tell
// "booting, leave alone" from "ready, send traffic".
//
// The handler is independent of the gateway listener: operators bind it to
// a separate, typically loopback-only, address (ecaagent's -http flag), so
// profiling and metrics never share a port with client traffic.
func (a *Agent) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		a.met.reg.WritePrometheus(w)
	})
	live := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	}
	mux.HandleFunc("/livez", live)
	mux.HandleFunc("/healthz", live)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		state, ready := a.Readiness()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte(state + "\n"))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		a.mu.Lock()
		events, triggers := len(a.events), len(a.triggers)
		a.mu.Unlock()
		payload := struct {
			Stats
			Events      int                              `json:"Events"`
			Triggers    int                              `json:"Triggers"`
			DeadLetters int                              `json:"DeadLetters"`
			Histograms  map[string]obs.HistogramSnapshot `json:"Histograms"`
		}{
			Stats:       a.Stats(),
			Events:      events,
			Triggers:    triggers,
			DeadLetters: a.dlq.len(),
			Histograms:  a.met.reg.Histograms(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	})
	mux.HandleFunc("/eventgraph", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		w.Write([]byte(a.led.Dot()))
	})
	// net/http/pprof only self-registers on http.DefaultServeMux; mount its
	// handlers explicitly so the admin mux stays private.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
