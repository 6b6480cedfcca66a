package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/activedb/ecaagent/internal/storage"
)

// Applier is the standby half of replication: it applies the primary's
// frame stream to a local replica directory, keeping it promotable at
// every frame boundary. Checkpoint images land with the same
// tmp→sync→rename→dirsync protocol the primary's own durability layer
// uses, file appends are synced before the frame counts as applied (the
// applied count is the durability acknowledgement the primary's lag
// gauges subtract), and heartbeats are decoded and handed to the
// registered callback.
//
// Promotion is deliberately not the Applier's job: it only maintains the
// directory. The monitor decides *when* to boot an agent over it, and
// agent recovery — checkpoint restore, journal replay, pending-action
// resume, shadow-table resync — does the rest.
type Applier struct {
	fs  storage.FS
	met *Metrics

	mu      sync.Mutex
	open    map[string]storage.File // live file handles (wal-N, ...); guarded by mu
	applied uint64                  // frames fully applied; guarded by mu
	peer    string                  // Hello sender; guarded by mu
	epoch   uint64                  // highest epoch seen in Hello/heartbeats; guarded by mu

	// OnHeartbeat, when set, observes every heartbeat frame (the monitor
	// hooks in here). Set before the first Apply; not guarded.
	OnHeartbeat func(seq, epoch uint64)
}

// NewApplier returns an applier writing into fs. met may be nil.
func NewApplier(fs storage.FS, met *Metrics) *Applier {
	return &Applier{fs: fs, met: met, open: make(map[string]storage.File)}
}

// Applied reports how many frames have been fully applied (written and
// synced) — the acknowledgement count shipped back for lag accounting.
func (ap *Applier) Applied() uint64 {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.applied
}

// Peer reports the node that opened the stream and the highest fencing
// epoch it has announced.
func (ap *Applier) Peer() (node string, epoch uint64) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.peer, ap.epoch
}

// Apply applies one frame. An error means the replica may be behind but
// is never half-applied: the failed frame's file is closed and will be
// reopened on the next append to it.
func (ap *Applier) Apply(f Frame) error {
	err := ap.apply(f)
	if ap.met != nil {
		if err != nil {
			ap.met.ReplErrors.Inc()
		} else {
			ap.met.ReplAppliedFrames.Inc()
		}
	}
	return err
}

func (ap *Applier) apply(f Frame) error {
	switch f.Kind {
	case FrameHello:
		epoch, _ := binary.Uvarint(f.Payload)
		ap.mu.Lock()
		ap.peer = f.Name
		if epoch > ap.epoch {
			ap.epoch = epoch
		}
		ap.applied++
		ap.mu.Unlock()
		return nil

	case FrameHeartbeat:
		seq, epoch, err := decodeHeartbeat(f.Payload)
		if err != nil {
			return err
		}
		ap.mu.Lock()
		if epoch > ap.epoch {
			ap.epoch = epoch
		}
		ap.applied++
		ap.mu.Unlock()
		if ap.met != nil {
			ap.met.HeartbeatsSeen.Inc()
		}
		if ap.OnHeartbeat != nil {
			ap.OnHeartbeat(seq, epoch)
		}
		return nil

	case FrameCkpt:
		// The primary's own publish sequence: tmp → fsync → rename → dir
		// fsync.
		if err := storage.Publish(ap.fs, f.Name, f.Payload); err != nil {
			return fmt.Errorf("cluster: publishing %s: %w", f.Name, err)
		}
		ap.bumpApplied()
		return nil

	case FrameFileOpen:
		ap.mu.Lock()
		defer ap.mu.Unlock()
		if old := ap.open[f.Name]; old != nil {
			if err := old.Close(); err != nil {
				return fmt.Errorf("cluster: closing replica %s: %w", f.Name, err)
			}
		}
		h, err := ap.fs.Create(f.Name)
		if err != nil {
			return fmt.Errorf("cluster: opening replica %s: %w", f.Name, err)
		}
		ap.open[f.Name] = h
		ap.applied++
		return nil

	case FrameFileData:
		ap.mu.Lock()
		defer ap.mu.Unlock()
		h := ap.open[f.Name]
		if h == nil {
			// A data frame with no preceding open can only follow an
			// applier restart mid-stream; the shipper re-ships a full
			// snapshot on reconnect, so this is stream damage, not a
			// recoverable gap.
			return fmt.Errorf("cluster: data for unopened replica file %s", f.Name)
		}
		if err := ap.appendSynced(h, f.Name, f.Payload); err != nil {
			return err
		}
		ap.applied++
		return nil

	case FrameRemove:
		ap.mu.Lock()
		defer ap.mu.Unlock()
		if old := ap.open[f.Name]; old != nil {
			if err := old.Close(); err != nil {
				return fmt.Errorf("cluster: closing replica %s: %w", f.Name, err)
			}
			delete(ap.open, f.Name)
		}
		if err := ap.fs.Remove(f.Name); err != nil {
			return fmt.Errorf("cluster: pruning replica %s: %w", f.Name, err)
		}
		if err := ap.fs.SyncDir(); err != nil {
			return fmt.Errorf("cluster: pruning replica %s: %w", f.Name, err)
		}
		ap.applied++
		return nil
	}
	return fmt.Errorf("%w: unhandled kind %d", ErrCorruptFrame, f.Kind)
}

func (ap *Applier) bumpApplied() {
	ap.mu.Lock()
	ap.applied++
	ap.mu.Unlock()
}

// appendSynced appends to a live replica file and syncs before the frame
// counts as applied — the applied count is a durability promise. Caller
// holds ap.mu.
func (ap *Applier) appendSynced(h storage.File, name string, p []byte) error {
	if _, err := h.Write(p); err != nil {
		return fmt.Errorf("cluster: appending replica %s: %w", name, err)
	}
	if err := h.Sync(); err != nil {
		return fmt.Errorf("cluster: syncing replica %s: %w", name, err)
	}
	return nil
}

// Close releases every open replica handle, propagating the first error
// (a failed close after write is a lost-durability bug, not noise).
func (ap *Applier) Close() error {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	var first error
	for name, h := range ap.open {
		if err := h.Close(); err != nil && first == nil {
			first = fmt.Errorf("cluster: closing replica %s: %w", name, err)
		}
		delete(ap.open, name)
	}
	return first
}
