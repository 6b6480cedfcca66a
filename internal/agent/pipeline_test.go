package agent

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// pipeRig is a deployment over real TCP whose agent-owned connections
// count their writes and can hold the first action write, so a test can
// queue a known backlog behind it.
type pipeRig struct {
	eng   *engine.Engine
	agent *Agent
	sess  *engine.Session // sharma in sentineldb, for DML

	mu    sync.Mutex
	admin []*heldConn // the agent's own connections; guarded by mu
	hold  atomic.Pointer[actionHold]
}

type actionHold struct {
	entered chan struct{}
	release chan struct{}
}

type heldConn struct {
	net.Conn
	rig    *pipeRig
	writes atomic.Int64
}

func (c *heldConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if h := c.rig.hold.Load(); h != nil && bytes.Contains(b, []byte("execute ")) && c.rig.hold.CompareAndSwap(h, nil) {
		close(h.entered)
		<-h.release
	}
	return c.Conn.Write(b)
}

func newPipeRig(t *testing.T, mutate func(*Config)) *pipeRig {
	t.Helper()
	r := &pipeRig{eng: engine.New(catalog.New())}
	srv := server.New(r.eng)
	srv.Logf = func(string, ...any) {}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cfg := Config{
		Dial: func(user, db string) (Upstream, error) {
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				return nil, err
			}
			hc := &heldConn{Conn: raw, rig: r}
			c, err := client.NewConn(hc, client.Options{User: user, Database: db})
			if err != nil {
				raw.Close()
				return nil, err
			}
			if user == "dbo" {
				r.mu.Lock()
				r.admin = append(r.admin, hc)
				r.mu.Unlock()
			}
			return c, nil
		},
		NotifyAddr: "-",
		Logf:       func(string, ...any) {},
		Retry:      RetryConfig{AttemptTimeout: 5 * time.Second},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close) // before the server closes
	r.agent = a
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		a.Deliver(msg)
		return nil
	})
	r.sess = r.eng.NewSession("sharma")
	if _, err := r.sess.ExecScript(`create database sentineldb
use sentineldb
create table pipe (n int)`); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *pipeRig) exec(t *testing.T, sql string) {
	t.Helper()
	if _, err := r.sess.ExecScript(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// adminWrites sums the writes of the agent's own connections.
func (r *pipeRig) adminWrites() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, c := range r.admin {
		n += c.writes.Load()
	}
	return n
}

// backlog inserts first, holds the action write it causes, then inserts
// rest while that write is held, and returns once they are all queued
// behind it, with the admin write count at that point and the release.
func (r *pipeRig) backlog(t *testing.T, first int, rest []int) (int64, func()) {
	t.Helper()
	h := &actionHold{entered: make(chan struct{}), release: make(chan struct{})}
	r.hold.Store(h)
	r.exec(t, fmt.Sprintf("insert pipe values (%d)", first))
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first action never reached the upstream")
	}
	for _, n := range rest {
		r.exec(t, fmt.Sprintf("insert pipe values (%d)", n))
	}
	q := r.agent.actionq
	for deadline := time.Now().Add(5 * time.Second); ; {
		q.mu.Lock()
		queued := len(q.jobs)
		q.mu.Unlock()
		if queued == len(rest) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs queued, want %d", queued, len(rest))
		}
		time.Sleep(time.Millisecond)
	}
	return r.adminWrites(), func() { close(h.release) }
}

// TestPipelineGroupOneWrite: a drained group of 4 goes to the upstream in
// one write, and its completions arrive in enqueue order.
func TestPipelineGroupOneWrite(t *testing.T) {
	r := newPipeRig(t, nil)
	cs, err := r.agent.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Exec("create trigger t on pipe for insert event addPipe as select n from pipe.inserted"); err != nil {
		t.Fatal(err)
	}
	before, release := r.backlog(t, 10, []int{11, 12, 13, 14})
	release()
	for i := 0; i < 5; i++ {
		res := waitAction(t, r.agent)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if v := res.Occ.Constituents[0].VNo; v != i+1 {
			t.Fatalf("completion %d is vNo %d", i, v)
		}
		if rows := res.Results[len(res.Results)-1].Rows; len(rows) != 1 || rows[0][0].Int() != int64(10+i) {
			t.Fatalf("completion %d read %v, want its own row %d", i, rows, 10+i)
		}
	}
	r.agent.WaitActions()
	if w := r.adminWrites() - before; w != 1 {
		t.Errorf("a drained group of 4 cost %d upstream writes, want 1", w)
	}
}

// TestPipelineServerErrorDeadLettersOne: a server error in job 2 of 4
// dead-letters job 2 only; the jobs after it still run.
func TestPipelineServerErrorDeadLettersOne(t *testing.T) {
	r := newPipeRig(t, nil)
	cs, err := r.agent.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Exec("create trigger t on pipe for insert event addPipe as select 100 / n from pipe.inserted"); err != nil {
		t.Fatal(err)
	}
	_, release := r.backlog(t, 1, []int{4, 0, 5, 10})
	release()
	for i := 0; i < 5; i++ {
		res := waitAction(t, r.agent)
		if v := res.Occ.Constituents[0].VNo; v != i+1 {
			t.Fatalf("completion %d is vNo %d", i, v)
		}
		if failed := res.Err != nil; failed != (i == 2) {
			t.Fatalf("completion %d (vNo %d): err %v", i, i+1, res.Err)
		}
	}
	dead := r.agent.DeadLetters()
	if len(dead) != 1 || dead[0].Occ.Constituents[0].VNo != 3 || !strings.Contains(dead[0].Err.Error(), "division by zero") {
		t.Fatalf("dead letters: %+v", dead)
	}
}

// TestPipelineLargeRepliesNoDeadlock: 64 pipelined actions that each
// select about 32 KiB finish; the requests fit one write, so the server's
// unread replies can never hold up the write.
func TestPipelineLargeRepliesNoDeadlock(t *testing.T) {
	r := newPipeRig(t, nil)
	row := strings.Repeat("x", 1000)
	r.exec(t, "create table big (s varchar(1000))")
	for i := 0; i < 32; i++ {
		r.exec(t, fmt.Sprintf("insert big values ('%s')", row))
	}
	cs, err := r.agent.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Exec("create trigger t on pipe for insert event addPipe as select s from big"); err != nil {
		t.Fatal(err)
	}
	rest := make([]int, 64)
	for i := range rest {
		rest[i] = i + 1
	}
	before, release := r.backlog(t, 0, rest)
	release()
	done := make(chan struct{})
	go func() {
		r.agent.WaitActions()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("64 pipelined 32 KiB actions still running after 20s")
	}
	for i := 0; i <= len(rest); i++ {
		res := waitAction(t, r.agent)
		if res.Err != nil || len(res.Results[len(res.Results)-1].Rows) != 32 {
			t.Fatalf("completion %d: %v", i, res.Err)
		}
	}
	if w := r.adminWrites() - before; w != 1 {
		t.Errorf("64 small action scripts cost %d writes, want 1", w)
	}
}

// TestPipelineDeadlineRerunsSentActions: the deadline cuts a group of 4
// while the real server runs its slow first action. That action runs
// again through the retry ladder; the server, which goes on with the
// requests it had already read, may run the ones after it a second time.
// Every job still completes once, in order.
func TestPipelineDeadlineRerunsSentActions(t *testing.T) {
	const deadline = 300 * time.Millisecond
	r := newPipeRig(t, func(cfg *Config) { cfg.Retry.AttemptTimeout = deadline })
	var (
		mu       sync.Mutex
		ran      = map[int]int{} // runs per action, keyed by the row it read
		slowDone = make(chan struct{})
	)
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		if msg != "ran" {
			r.agent.Deliver(msg)
			return nil
		}
		mu.Lock()
		ran[port]++
		first := port == 1 && ran[port] == 1
		mu.Unlock()
		if first {
			time.Sleep(deadline * 3 / 2)
			close(slowDone)
		}
		return nil
	})
	cs, err := r.agent.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Exec("create trigger t on pipe for insert event addPipe as select syb_sendmsg('127.0.0.1', n, 'ran') from pipe.inserted"); err != nil {
		t.Fatal(err)
	}
	_, release := r.backlog(t, 100, []int{1, 2, 3, 4})
	release()
	for i := 0; i < 5; i++ {
		if res := waitAction(t, r.agent); res.Err != nil || res.Occ.Constituents[0].VNo != i+1 {
			t.Fatalf("completion %d: vNo %d, %v", i, res.Occ.Constituents[0].VNo, res.Err)
		}
	}
	r.agent.WaitActions()
	// Let the cut connection's server side finish what it had read.
	<-slowDone
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	t.Logf("runs per action: %v", ran)
	if ran[100] != 1 || ran[1] != 2 {
		t.Errorf("runs: %v; want the held action once and the slow one twice", ran)
	}
	for _, n := range []int{2, 3, 4} {
		if ran[n] < 1 || ran[n] > 2 {
			t.Errorf("action %d ran %d times, want once or twice", n, ran[n])
		}
	}
}

// TestPipelineDurableGroupOfOne: with durability on, each action is its
// own group, so a power cut re-executes at most the one in flight.
func TestPipelineDurableGroupOfOne(t *testing.T) {
	r := newPipeRig(t, func(cfg *Config) {
		cfg.Durability = &Durability{FS: faults.NewCrashDir(1), WALSync: WALSyncAlways}
	})
	cs, err := r.agent.NewClientSession("sharma", "sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Exec("create trigger t on pipe for insert event addPipe as select n from pipe.inserted"); err != nil {
		t.Fatal(err)
	}
	before, release := r.backlog(t, 1, []int{2, 3, 4, 5})
	release()
	for i := 0; i < 5; i++ {
		if res := waitAction(t, r.agent); res.Err != nil || res.Occ.Constituents[0].VNo != i+1 {
			t.Fatalf("completion %d: vNo %d, %v", i, res.Occ.Constituents[0].VNo, res.Err)
		}
	}
	r.agent.WaitActions()
	if w := r.adminWrites() - before; w != 4 {
		t.Errorf("4 durable actions cost %d upstream writes, want 4", w)
	}
}

// scriptServer is a loopback server that logs in each connection and
// hands it, numbered from 0, to serve.
func scriptServer(t *testing.T, serve func(n int, r *bufio.Reader, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				if _, err := tds.ReadPacket(r); err != nil {
					return
				}
				if err := tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{OK: true})); err != nil {
					return
				}
				serve(n, r, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// echo reads one request and answers it with its own text as a message.
func echo(r *bufio.Reader, conn net.Conn) (string, error) {
	pkt, err := tds.ReadPacket(r)
	if err != nil {
		return "", err
	}
	sql, err := tds.UnmarshalLanguage(pkt)
	if err != nil {
		return "", err
	}
	return sql, tds.WriteResults(conn, []*sqltypes.ResultSet{{Messages: []string{sql}}}, nil)
}

type groupReply struct {
	msgs []string
	err  error
}

// execGroup runs ExecGroup and checks that every reply comes once, in order.
func execGroup(t *testing.T, r *retryUpstream, scripts []string) []groupReply {
	t.Helper()
	var got []groupReply
	r.ExecGroup(scripts, func(i int, results []*sqltypes.ResultSet, err error) {
		if i != len(got) {
			t.Errorf("reply %d arrived as number %d", i, len(got))
		}
		got = append(got, groupReply{messages(results), err})
	})
	if len(got) != len(scripts) {
		t.Fatalf("%d replies for %d scripts", len(got), len(scripts))
	}
	return got
}

func dialTo(addr string) func() (Upstream, error) {
	return func() (Upstream, error) { return client.Connect(addr, client.Options{}) }
}

// TestExecGroupCutAfterFirstReply: the connection dies after reply 1, so
// scripts 2-4 run through the retry ladder, each once, on the new
// connection.
func TestExecGroupCutAfterFirstReply(t *testing.T) {
	var (
		mu    sync.Mutex
		rerun []string
	)
	addr := scriptServer(t, func(n int, r *bufio.Reader, conn net.Conn) {
		if n == 0 {
			echo(r, conn)
			return // drop the rest unanswered
		}
		for {
			sql, err := echo(r, conn)
			if err != nil {
				return
			}
			mu.Lock()
			rerun = append(rerun, sql)
			mu.Unlock()
		}
	})
	retries, reconnects := 0, 0
	r := newRetryUpstream(dialTo(addr), fastRetry, nil, func() { retries++ }, func() { reconnects++ })
	defer r.Close()
	scripts := []string{"s1", "s2", "s3", "s4"}
	for i, g := range execGroup(t, r, scripts) {
		if g.err != nil || len(g.msgs) != 1 || g.msgs[0] != scripts[i] {
			t.Errorf("reply %d: %+v", i, g)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(rerun, ",") != "s2,s3,s4" || reconnects != 1 {
		t.Errorf("the new connection ran %v after %d reconnects, want [s2 s3 s4] after 1", rerun, reconnects)
	}
	// The cut group was s2's first attempt: s2 is retried, after a backoff.
	if retries != 1 {
		t.Errorf("%d retries, want 1", retries)
	}
}

// TestExecGroupDeadlineSilentServer: against a server that never answers,
// the group attempt times out and every script then fails through the
// ladder with errAttemptTimeout instead of waiting forever. The group
// attempt counts as the first script's first try.
func TestExecGroupDeadlineSilentServer(t *testing.T) {
	var conns atomic.Int64
	addr := scriptServer(t, func(_ int, r *bufio.Reader, _ net.Conn) {
		conns.Add(1)
		_, _ = io.Copy(io.Discard, r) // read requests, answer none
	})
	r := newRetryUpstream(dialTo(addr), RetryConfig{MaxAttempts: 2, AttemptTimeout: 200 * time.Millisecond}, nil, nil, nil)
	defer r.Close()
	start := time.Now()
	for i, g := range execGroup(t, r, []string{"s1", "s2", "s3"}) {
		if !errors.Is(g.err, errAttemptTimeout) {
			t.Errorf("reply %d: %v, want errAttemptTimeout", i, g.err)
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("group against a silent server took %v", elapsed)
	}
	// 2 tries for each of 3 scripts, one connection each.
	if n := conns.Load(); n != 6 {
		t.Errorf("%d connections, want 6", n)
	}
}

// TestExecGroupDeadlinePerReply: the deadline restarts at every reply, so
// a group that takes longer than one deadline in total, but never waits
// that long for one reply, succeeds on its first connection.
func TestExecGroupDeadlinePerReply(t *testing.T) {
	addr := scriptServer(t, func(_ int, r *bufio.Reader, conn net.Conn) {
		for {
			time.Sleep(100 * time.Millisecond)
			if _, err := echo(r, conn); err != nil {
				return
			}
		}
	})
	reconnects := 0
	r := newRetryUpstream(dialTo(addr), RetryConfig{AttemptTimeout: 300 * time.Millisecond}, nil, nil, func() { reconnects++ })
	defer r.Close()
	scripts := []string{"s1", "s2", "s3", "s4", "s5"}
	for i, g := range execGroup(t, r, scripts) {
		if g.err != nil || g.msgs[0] != scripts[i] {
			t.Errorf("reply %d: %+v", i, g)
		}
	}
	if reconnects != 0 {
		t.Errorf("%d reconnects: the deadline cut a group whose every reply came in time", reconnects)
	}
}
