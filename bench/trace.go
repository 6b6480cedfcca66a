package main

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// tracer stamps one occurrence's way round the loop at the seams the
// benchmark owns — nothing inside the packages is touched:
//
//	engine.Notifier around UDPNotifier   the native trigger fired
//	agent.Config.Forward                 decoded, ingested, detected
//	agent.Upstream around Config.Dial    action script sent / answered, and
//	                                     every gateway session's server hop
//	Agent.ActionDone                     action reported (the collector)
//	storage.FS under Durability.FS       WAL writes and fsyncs
//	the ShipFS sink, Durability.ShipBarrier   standby ship + ack waits
//
// Stamps are keyed by (event, vNo). Each slot is written once by one
// goroutine and read only after the deployment has been closed, which
// joins every writer; that ordering is why the slots need no locks.
type tracer struct {
	base time.Time
	// on gates stamping. The timed phase alternates blocks with it set and
	// cleared, so one run yields both traced and untraced reaction times
	// and their ratio is the tracing overhead.
	on atomic.Bool

	trig map[string][]int64 // internal event name -> stamp by vNo
	fwd  map[string][]int64

	mu         sync.Mutex
	actions    map[string]span // action key -> the upstream call that ran it
	actionCall int64           // action scripts sent upstream
	sessionUs  []float64       // gateway sessions' upstream call durations
	syncUs     []float64       // WAL fsync durations
	shipUs     []float64       // frames shipped and acknowledged (the ShipFS sink)
	barrierUs  []float64       // Durability.ShipBarrier waits
	datagrams  [][]byte        // sample of notification datagrams, for the decode probe
	scripts    []string        // sample of action scripts, for the materialize/exec probe

	fsSyncs, fsBytes, frames, shippedBytes atomic.Int64
}

type span struct{ start, end int64 }

const sampleCap = 256

func newTracer(base time.Time, occ map[string]*occIndex) *tracer {
	t := &tracer{base: base, trig: map[string][]int64{}, fwd: map[string][]int64{}, actions: map[string]span{}}
	for ev, oi := range occ {
		t.trig[ev] = make([]int64, len(oi.idx)+2)
		t.fwd[ev] = make([]int64, len(oi.idx)+2)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func stamp(slots map[string][]int64, event string, vno int, at int64) {
	if s := slots[event]; vno >= 0 && vno < len(s) {
		s[vno] = at
	}
}

func (t *tracer) notifier(inner engine.Notifier) engine.Notifier {
	return func(host string, port int, msg string) error {
		if t.on.Load() {
			at := t.now()
			data := []byte(msg)
			agent.DecodeBatchBytes(data, func(p led.Primitive) { stamp(t.trig, p.Event, p.VNo, at) }, func(error) {})
			t.mu.Lock()
			if len(t.datagrams) < sampleCap {
				t.datagrams = append(t.datagrams, data)
			}
			t.mu.Unlock()
		}
		return inner(host, port, msg)
	}
}

func (t *tracer) forward(p led.Primitive) {
	if t.on.Load() {
		stamp(t.fwd, p.Event, p.VNo, t.now())
	}
}

func (t *tracer) dialer(inner agent.UpstreamDialer) agent.UpstreamDialer {
	return func(user, db string) (agent.Upstream, error) {
		up, err := inner(user, db)
		if err != nil {
			return nil, err
		}
		return &timedUpstream{Upstream: up, t: t, session: user == benchUser}, nil
	}
}

// timedUpstream times every call on one upstream connection. A gateway
// session's calls are the gateway-to-server hop of a client statement; on
// the agent's own connections only action scripts are of interest.
type timedUpstream struct {
	agent.Upstream
	t       *tracer
	session bool
}

func (u *timedUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	if !u.t.on.Load() {
		return u.Upstream.Exec(sql)
	}
	key := ""
	if !u.session {
		if key = actionKeyFromScript(sql); key == "" {
			return u.Upstream.Exec(sql)
		}
	}
	start := u.t.now()
	rs, err := u.Upstream.Exec(sql)
	end := u.t.now()
	u.t.mu.Lock()
	if u.session {
		u.t.sessionUs = append(u.t.sessionUs, float64(end-start)/1e3)
	} else {
		u.t.actions[key] = span{start, end}
		u.t.actionCall++
		if len(u.t.scripts) < sampleCap {
			u.t.scripts = append(u.t.scripts, sql)
		}
	}
	u.t.mu.Unlock()
	return rs, err
}

// takeAction returns and forgets the upstream span of one reported action.
func (t *tracer) takeAction(key string) (span, bool) {
	t.mu.Lock()
	s, ok := t.actions[key]
	if ok {
		delete(t.actions, key)
	}
	t.mu.Unlock()
	return s, ok
}

const procSuffix = "__Proc" // Figure 11: a rule's action procedure is <trigger>__Proc

// actionKeyFromScript recognises the Action Handler's script — context
// rows inserted into sysContext, then "execute <trigger>__Proc" — and
// returns "<trigger>:<vNo>,<vNo>...", the same key actionKeyFromResult
// derives from the report. Any other batch yields "".
func actionKeyFromScript(sql string) string {
	last := sql[strings.LastIndexByte(sql, '\n')+1:]
	if !strings.HasPrefix(last, "execute ") || !strings.HasSuffix(last, procSuffix) {
		return ""
	}
	var b strings.Builder
	b.WriteString(last[len("execute ") : len(last)-len(procSuffix)])
	sep := byte(':')
	for _, line := range strings.Split(sql, "\n") {
		if !strings.HasPrefix(line, "insert ") || !strings.HasSuffix(line, ")") {
			continue
		}
		i := strings.LastIndex(line, ", ")
		if i < 0 {
			continue
		}
		b.WriteByte(sep)
		b.WriteString(line[i+2 : len(line)-1])
		sep = ','
	}
	return b.String()
}

func actionKeyFromResult(res agent.ActionResult) string {
	var b strings.Builder
	b.WriteString(res.Rule)
	sep := byte(':')
	for _, c := range res.Occ.Constituents {
		if c.Table == "" {
			continue
		}
		b.WriteByte(sep)
		b.WriteString(strconv.Itoa(c.VNo))
		sep = ','
	}
	return b.String()
}

// fs wraps the primary's durability directory to count and time what the
// WAL does to it.
func (t *tracer) fs(inner storage.FS) storage.FS { return &countingFS{FS: inner, t: t} }

type countingFS struct {
	storage.FS
	t *tracer
}

func (c *countingFS) Create(name string) (storage.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, t: c.t}, nil
}

type countingFile struct {
	storage.File
	t *tracer
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.t.fsBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	f.t.fsSyncs.Add(1)
	if f.t.on.Load() {
		us := float64(f.t.now()-start) / 1e3
		f.t.mu.Lock()
		f.t.syncUs = append(f.t.syncUs, us)
		f.t.mu.Unlock()
	}
	return err
}

func (t *tracer) barrier(inner func() error) func() error {
	return func() error {
		start := t.now()
		err := inner()
		if t.on.Load() {
			us := float64(t.now()-start) / 1e3
			t.mu.Lock()
			t.barrierUs = append(t.barrierUs, us)
			t.mu.Unlock()
		}
		return err
	}
}

// shipped records one frame the ShipFS sink shipped and waited on.
func (t *tracer) shipped(payload int, ns int64) {
	t.frames.Add(1)
	t.shippedBytes.Add(int64(payload))
	if t.on.Load() {
		t.mu.Lock()
		t.shipUs = append(t.shipUs, float64(ns)/1e3)
		t.mu.Unlock()
	}
}
