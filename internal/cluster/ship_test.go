package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/obs"
)

// mirror asserts two directories hold identical file sets and bytes.
func mirror(t *testing.T, a, b *faults.CrashDir) {
	t.Helper()
	an, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	bn, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(an, ",") != strings.Join(bn, ",") {
		t.Fatalf("listings diverge:\n primary: %v\n replica: %v", an, bn)
	}
	for _, name := range an {
		ac, err := a.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := b.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ac, bc) {
			t.Fatalf("%s diverges: %d vs %d bytes", name, len(ac), len(bc))
		}
	}
}

func TestShipApplyRoundTrip(t *testing.T) {
	pri := faults.NewCrashDir(1)
	rep := faults.NewCrashDir(2)
	met := NewMetrics(obs.NewRegistry())
	ap := NewApplier(rep, nil)
	ship := NewShipFS(pri, ap.Apply, nil, met)

	// A live WAL-style file: open frame, then per-append data frames.
	w, err := ship.Create("wal-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{{1, 9, 9}, {2, 8}, {1, 7, 7, 7}} {
		if _, err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// A checkpoint publish: the temp file buffers (no frames), the rename
	// ships one atomic FrameCkpt.
	tf, err := ship.Create("ckpt-2.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Write([]byte("ECACKPT1 image bytes")); err != nil {
		t.Fatal(err)
	}
	if err := tf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ship.Rename("ckpt-2.tmp", "ckpt-2"); err != nil {
		t.Fatal(err)
	}
	if err := ship.SyncDir(); err != nil {
		t.Fatal(err)
	}

	// A prune.
	old, err := ship.Create("wal-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ship.Remove("wal-0"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	mirror(t, pri, rep)
	if ship.Err() != nil {
		t.Fatalf("healthy replication reports error: %v", ship.Err())
	}
	if met.ReplShippedFrames.Value() != ap.Applied() {
		t.Fatalf("shipped %d frames, replica applied %d", met.ReplShippedFrames.Value(), ap.Applied())
	}

	// The snapshot renders the same state onto a fresh directory — the
	// reconnect path a TCP shipper uses after the standby restarts.
	frames, err := ship.SnapshotFrames()
	if err != nil {
		t.Fatal(err)
	}
	fresh := faults.NewCrashDir(3)
	ap2 := NewApplier(fresh, nil)
	for _, f := range frames {
		if err := ap2.Apply(f); err != nil {
			t.Fatalf("snapshot frame %d/%s: %v", f.Kind, f.Name, err)
		}
	}
	if err := ap2.Close(); err != nil {
		t.Fatal(err)
	}
	mirror(t, pri, fresh)
}

func TestShipFailureNeverFailsLocal(t *testing.T) {
	pri := faults.NewCrashDir(4)
	met := NewMetrics(obs.NewRegistry())
	boom := errors.New("standby unreachable")
	healthy := false
	ship := NewShipFS(pri, func(Frame) error {
		if healthy {
			return nil
		}
		return boom
	}, nil, met)

	w, err := ship.Create("wal-1")
	if err != nil {
		t.Fatalf("local create must survive a dead sink: %v", err)
	}
	if _, err := w.Write([]byte{1, 2, 3}); err != nil {
		t.Fatalf("local write must survive a dead sink: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ship.Err(), boom) {
		t.Fatalf("Err() = %v, want the sink failure", ship.Err())
	}
	if met.ReplErrors.Value() == 0 {
		t.Fatal("ship failures were not counted")
	}
	if got, err := pri.ReadFile("wal-1"); err != nil || len(got) != 3 {
		t.Fatalf("local bytes lost: %v %v", got, err)
	}

	healthy = true
	if _, err := w.Write([]byte{4}); err != nil {
		t.Fatal(err)
	}
	if ship.Err() != nil {
		t.Fatalf("Err() sticky after recovery: %v", ship.Err())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestApplierRejectsDataWithoutOpen pins the stream-damage rule: an
// append for a file no open frame announced is an error, not a silent
// create — it can only mean the applier missed part of the stream.
func TestApplierRejectsDataWithoutOpen(t *testing.T) {
	ap := NewApplier(faults.NewCrashDir(5), nil)
	err := ap.Apply(Frame{Kind: FrameFileData, Name: "wal-9", Payload: []byte{1}})
	if err == nil {
		t.Fatal("orphan data frame applied silently")
	}
}

func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	met.SetRole(RoleStandby)
	met.SetRole(RolePrimary)
	met.HeartbeatsSent.Inc()
	met.Promotions.Inc()
	met.FencedRejections.Inc()
	met.ReplLagBytes.Set(42)
	met.ReplLagRecords.Set(2)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`eca_cluster_role{role="primary"} 1`,
		`eca_cluster_role{role="standby"} 0`,
		"eca_cluster_heartbeats_sent_total 1",
		"eca_cluster_promotions_total 1",
		"eca_cluster_fenced_rejections_total 1",
		"eca_cluster_repl_lag_bytes 42",
		"eca_cluster_repl_lag_records 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if met.Role() != RolePrimary {
		t.Fatalf("Role() = %q", met.Role())
	}
}
