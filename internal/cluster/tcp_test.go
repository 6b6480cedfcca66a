package cluster

import (
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/obs"
)

// waitFor polls until cond holds or the deadline passes — TCP tests wait
// on real kernel I/O, so a wall-clock bound is the honest tool.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestShipperStreamsAndAcks(t *testing.T) {
	rep := faults.NewCrashDir(11)
	metB := NewMetrics(obs.NewRegistry())
	ap := NewApplier(rep, metB)
	addr, stop, err := ListenStandby("127.0.0.1:0", ap)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	tok := &Token{}
	tok.Set(3)
	metA := NewMetrics(obs.NewRegistry())
	sh := NewShipper(ShipperConfig{Addr: addr, Node: "A", Tok: tok}, metA)
	defer sh.Close()

	frames := []Frame{
		{Kind: FrameFileOpen, Name: "wal-1"},
		{Kind: FrameFileData, Name: "wal-1", Payload: []byte{1, 2, 3}},
		{Kind: FrameCkpt, Name: "ckpt-1", Payload: []byte("image")},
		{Kind: FrameCkpt, Name: "ckpt-2", Payload: []byte("image 2")},
	}
	for _, f := range frames {
		if err := sh.Ship(f); err != nil {
			t.Fatalf("ship %d: %v", f.Kind, err)
		}
	}
	// Hello + 4 frames all applied and acknowledged.
	waitFor(t, "acks to drain", func() bool { rec, _ := sh.Lag(); return rec == 0 })
	if ap.Applied() != 5 {
		t.Fatalf("applied = %d, want 5", ap.Applied())
	}
	if node, epoch := ap.Peer(); node != "A" || epoch != 3 {
		t.Fatalf("peer = (%s, %d), want (A, 3)", node, epoch)
	}
	if got, err := rep.ReadFile("wal-1"); err != nil || len(got) != 3 {
		t.Fatalf("replica wal-1 = %v, %v", got, err)
	}
	if got, err := rep.ReadFile("ckpt-1"); err != nil || string(got) != "image" {
		t.Fatalf("replica ckpt-1 = %q, %v", got, err)
	}
	if _, bytes := sh.Lag(); bytes != 0 {
		t.Fatalf("lag bytes = %d after full ack", bytes)
	}
}

// TestShipperReconnectsWithSnapshot kills the standby's listener
// mid-stream and brings a new one up on a fresh directory: the next Ship
// must fail loudly (the primary's ShipFS treats that as a counted,
// non-fatal degradation), and the one after must reconnect, re-ship the
// snapshot, and converge the fresh replica.
func TestShipperReconnectsWithSnapshot(t *testing.T) {
	rep1 := faults.NewCrashDir(12)
	ap1 := NewApplier(rep1, nil)
	addr, stop1, err := ListenStandby("127.0.0.1:0", ap1)
	if err != nil {
		t.Fatal(err)
	}

	pri := faults.NewCrashDir(13)
	var sh *Shipper
	ship := NewShipFS(pri, func(f Frame) error { return sh.Ship(f) }, nil, nil)
	sh = NewShipper(ShipperConfig{Addr: addr, Node: "A", Snapshot: ship.SnapshotFrames}, nil)
	defer sh.Close()

	w, err := ship.Create("wal-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first standby to apply", func() bool { return ap1.Applied() >= 3 })
	stop1() // the standby dies mid-stream

	// The break surfaces on some subsequent write's ship — broken TCP can
	// take a write or two to notice — and ShipFS degrades gracefully:
	// local durability is unaffected throughout.
	waitFor(t, "shipper to notice the break", func() bool {
		if _, err := w.Write([]byte{9}); err != nil {
			t.Fatalf("local write failed during standby outage: %v", err)
		}
		return ship.Err() != nil
	})

	// A replacement standby comes up on the same address with an EMPTY
	// directory — only the snapshot re-ship can converge it.
	rep2 := faults.NewCrashDir(14)
	ap2 := NewApplier(rep2, nil)
	if _, _, err := ListenStandby(addr, ap2); err != nil {
		t.Fatal(err)
	}
	// Poke with writes until one of them reconnects (Err clears on the
	// first successful ship), then stop writing and let the replica drain
	// to the primary's final state.
	waitFor(t, "shipper to reconnect", func() bool {
		if _, err := w.Write([]byte{7}); err != nil {
			t.Fatalf("local write failed during reconnect: %v", err)
		}
		return ship.Err() == nil
	})
	waitFor(t, "replica to converge", func() bool {
		want, err := pri.ReadFile("wal-1")
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep2.ReadFile("wal-1")
		return err == nil && len(got) == len(want)
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mirror(t, pri, rep2)
}
