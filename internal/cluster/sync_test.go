package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/scenario"
)

// The degradation ladder, rung by rung: healthy sync passes the barrier;
// a failure under the async policy degrades loudly (gauge up, barrier
// skipped) instead of stalling; the first successful ship re-enters
// sync; and the halt policy latches.
func TestSyncControllerDegradeAsync(t *testing.T) {
	clock := led.NewManualClock(scenario.Base)
	met := NewMetrics(obs.NewRegistry())
	var barrierErr error
	barriers := 0
	ctl := NewSyncController(SyncConfig{
		Mode: ReplModeSync, Degrade: DegradeAsync, Grace: 10 * time.Second, Clock: clock,
	}, func() error { barriers++; return barrierErr }, met)

	if err := ctl.Barrier(); err != nil {
		t.Fatalf("healthy barrier: %v", err)
	}
	if barriers != 1 || met.ReplSyncBarriers.Value() != 1 {
		t.Fatalf("barriers = %d / %d, want 1/1", barriers, met.ReplSyncBarriers.Value())
	}

	barrierErr = errors.New("standby gone")
	if err := ctl.Barrier(); err != nil {
		t.Fatalf("async degrade must not surface the failure: %v", err)
	}
	if !ctl.Degraded() || met.ReplDegraded.Value() != 1 {
		t.Fatalf("degraded = %v gauge = %d, want true/1", ctl.Degraded(), met.ReplDegraded.Value())
	}
	if met.ReplSyncTimeouts.Value() != 1 {
		t.Fatalf("timeouts = %d, want 1", met.ReplSyncTimeouts.Value())
	}

	// While degraded the barrier is skipped entirely — occurrences must
	// not each stall for the ack deadline against a dead standby.
	if err := ctl.Barrier(); err != nil || barriers != 2 {
		t.Fatalf("degraded barrier err=%v calls=%d, want nil/2", err, barriers)
	}

	// A successful ship (the heartbeat path re-dialing) re-enters sync.
	ctl.ObserveShip(nil)
	if ctl.Degraded() || met.ReplDegraded.Value() != 0 {
		t.Fatalf("recovery did not clear degraded state")
	}
	barrierErr = nil
	if err := ctl.Barrier(); err != nil || barriers != 3 {
		t.Fatalf("post-recovery barrier err=%v calls=%d, want nil/3", err, barriers)
	}
}

func TestSyncControllerHaltLatches(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	ctl := NewSyncController(SyncConfig{
		Mode: ReplModeSync, Degrade: DegradeHalt, Clock: led.NewManualClock(scenario.Base),
	}, func() error { return errors.New("standby gone") }, met)

	if err := ctl.Barrier(); !errors.Is(err, ErrReplHalted) {
		t.Fatalf("halt policy returned %v, want ErrReplHalted", err)
	}
	if !ctl.Halted() || met.ReplHalted.Value() != 1 || met.ReplDegraded.Value() != 1 {
		t.Fatalf("halt state not latched (halted=%v halted-gauge=%d degraded-gauge=%d)",
			ctl.Halted(), met.ReplHalted.Value(), met.ReplDegraded.Value())
	}
	// Latched: even a later successful ship does not silently resume.
	ctl.ObserveShip(nil)
	if err := ctl.Barrier(); !errors.Is(err, ErrReplHalted) {
		t.Fatalf("halt did not latch: %v", err)
	}
	if state, ok := ctl.Ready(); ok || state != "repl-halted" {
		t.Fatalf("Ready() = (%q, %v), want (repl-halted, false)", state, ok)
	}
}

func TestSyncControllerAsyncModeNoops(t *testing.T) {
	ctl := NewSyncController(SyncConfig{Mode: ReplModeAsync},
		func() error { return errors.New("must not be called") }, nil)
	if err := ctl.Barrier(); err != nil {
		t.Fatalf("async-mode barrier: %v", err)
	}
	if state, ok := ctl.Ready(); !ok || state != "" {
		t.Fatalf("async-mode Ready() = (%q, %v)", state, ok)
	}
}

// The satellite regression test: a sync primary whose standby has been
// unreachable past the grace window must fail its /readyz probe with the
// repl-degraded state and raise eca_cluster_repl_degraded — within the
// grace window it stays ready (a blip must not eject it from rotation).
func TestReadyzFailsWhenSyncPeerUnreachable(t *testing.T) {
	eng := engine.New(catalog.New())
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript("create database rdb"); err != nil {
		t.Fatal(err)
	}
	clock := led.NewManualClock(scenario.Base)
	met := NewMetrics(obs.NewRegistry())
	ctl := NewSyncController(SyncConfig{
		Mode: ReplModeSync, Degrade: DegradeAsync, Grace: 10 * time.Second, Clock: clock,
	}, func() error { return errors.New("dial tcp: connection refused") }, met)

	a, err := agent.New(agent.Config{
		Dial:       agent.LocalDialer(eng),
		NotifyAddr: "-",
		Clock:      led.NewManualClock(scenario.Base),
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: faults.NewCrashDir(3), WALSync: agent.WALSyncAlways, ShipBarrier: ctl.Barrier},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetRoleFunc(func() string { return RolePrimary })
	a.SetReadinessGate(ctl.Ready)

	srv := httptest.NewServer(a.AdminHandler())
	defer srv.Close()
	readyz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 64)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	if code, body := readyz(); code != http.StatusOK {
		t.Fatalf("healthy primary /readyz = %d %q, want 200", code, body)
	}

	// The peer dies; the first barrier failure degrades the link.
	if err := ctl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if met.ReplDegraded.Value() != 1 {
		t.Fatalf("eca_cluster_repl_degraded = %d, want 1", met.ReplDegraded.Value())
	}
	// Inside the grace window the node stays in rotation.
	clock.Advance(5 * time.Second)
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz failed inside the grace window: %d", code)
	}
	// Past it, readiness must fail with the degraded state.
	clock.Advance(5 * time.Second)
	if code, body := readyz(); code != http.StatusServiceUnavailable || body != "repl-degraded\n" {
		t.Fatalf("/readyz past grace = %d %q, want 503 repl-degraded", code, body)
	}

	// The standby comes back: one successful ship restores readiness.
	ctl.ObserveShip(nil)
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", code)
	}
	if met.ReplDegraded.Value() != 0 {
		t.Fatalf("eca_cluster_repl_degraded = %d after recovery, want 0", met.ReplDegraded.Value())
	}
}

// Shipper.Barrier against a real standby: returns only after the
// cumulative ack covers everything shipped, leaving zero lag.
func TestShipperBarrierDrains(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	ap := NewApplier(faults.NewCrashDir(5), met)
	addr, stop, err := ListenStandby("127.0.0.1:0", ap)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	s := NewShipper(ShipperConfig{Addr: addr, Node: "A", SyncWindow: 2, AckTimeout: 5 * time.Second}, met)
	defer s.Close()
	for i := 0; i < 10; i++ {
		f := Frame{Kind: FrameFileOpen, Name: fmt.Sprintf("wal-%d", i)}
		if err := s.Ship(f); err != nil {
			t.Fatalf("ship %d: %v", i, err)
		}
	}
	if err := s.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if recs, bytes := s.Lag(); recs != 0 || bytes != 0 {
		t.Fatalf("lag after barrier = (%d, %d), want (0, 0)", recs, bytes)
	}
}

// A standby that accepts but never acks must trip the per-record
// deadline: the window admission (or the barrier) fails with
// ErrAckTimeout instead of wedging the primary forever.
func TestShipperAckTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // swallow the stream, never ack
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	s := NewShipper(ShipperConfig{
		Addr: ln.Addr().String(), Node: "A",
		SyncWindow: 1, AckTimeout: 100 * time.Millisecond,
	}, nil)
	defer s.Close()

	// The hello frame already occupies the window, so admission of the
	// first ship, the second ship, or an explicit barrier — whichever
	// waits first on the silent peer — must fail on deadline.
	err = s.Ship(Frame{Kind: FrameFileOpen, Name: "wal-1"})
	if err == nil {
		err = s.Ship(Frame{Kind: FrameFileOpen, Name: "wal-2"})
	}
	if err == nil {
		err = s.Barrier()
	}
	if !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("silent standby produced %v, want ErrAckTimeout", err)
	}
}

// Acks must correspond to durable applies: the standby writes its
// cumulative count only after Applier.Apply returns, so a shipper that
// has seen ack N can rely on N frames being fsynced. This test speaks
// the wire format directly to pin the ack framing (8-byte LE cumulative
// count per frame).
func TestStandbyAcksAreCumulativeAndPostApply(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	dir := faults.NewCrashDir(6)
	ap := NewApplier(dir, met)
	addr, stop, err := ListenStandby("127.0.0.1:0", ap)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, f := range []Frame{
		{Kind: FrameHello, Name: "X", Payload: binary.AppendUvarint(nil, 1)},
		{Kind: FrameFileOpen, Name: "wal-9"},
		{Kind: FrameFileData, Name: "wal-9", Payload: []byte("abc")},
	} {
		if _, err := conn.Write(EncodeFrame(f)); err != nil {
			t.Fatal(err)
		}
		var ack [8]byte
		if _, err := ioReadFull(conn, ack[:]); err != nil {
			t.Fatalf("reading ack %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(ack[:]); got != uint64(i+1) {
			t.Fatalf("ack %d = %d, want %d", i, got, i+1)
		}
	}
	if data, err := dir.ReadFile("wal-9"); err != nil || string(data) != "abc" {
		t.Fatalf("replica file = %q, %v; the ack outran the durable apply", data, err)
	}
}

func ioReadFull(conn net.Conn, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := conn.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
