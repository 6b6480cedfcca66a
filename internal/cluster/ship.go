package cluster

import (
	"strings"
	"sync"

	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/storage"
)

// Sink receives replication frames in ship order. The in-process chaos
// harness plugs an Applier in directly (synchronous replication — the
// exactly-once-across-failover setting); production plugs a Shipper that
// carries the frames over TCP.
type Sink func(Frame) error

// ShipFS tees a primary's durability layer to a replication sink. It
// wraps the agent's storage.FS so every byte the checkpoint/WAL machinery
// makes durable locally is also framed and shipped, in write order:
//
//   - appends to live files (the WAL) ship as
//     FrameFileOpen/FrameFileData as they happen;
//   - checkpoint temp files are buffered and ship as one atomic FrameCkpt
//     when the publish rename lands — the standby never sees a
//     half-written checkpoint image;
//   - prunes ship as FrameRemove.
//
// Ship failures never fail the primary's local durability: they are
// counted (ReplErrors), remembered (Err), and the primary keeps running —
// a lagging standby degrades the failover guarantee, it must not take the
// live node down with it. Nothing retries the failed frame: a Shipper
// sink drops its connection on the failure, and the next Ship redials and
// re-ships a snapshot (SnapshotFrames), which already holds the failed
// frame's effect. There is no retry ladder and no backoff: while the
// standby stays down, every Ship dials once and fails.
//
// Mid-replication crash points: the chaos harness arms repl.preShip.* /
// repl.postShip.* to kill the primary between a local write and its ship
// (or just after), the windows a real node-death race exposes. The suffix
// names what was being shipped (ckpt, occ, done, data, open, remove), so
// a test can land the crash on exactly the record kind under study.
type ShipFS struct {
	inner storage.FS
	sink  Sink
	crash *faults.CrashSet
	met   *Metrics

	mu      sync.Mutex
	tmpBufs map[string][]byte   // pending .tmp file contents; guarded by mu
	live    map[string]struct{} // non-tmp files created through us; guarded by mu
	lastErr error               // last ship failure; guarded by mu
}

// NewShipFS wraps inner so every durable mutation is also shipped to
// sink. crash may be nil (no injection); met may be nil (no accounting).
func NewShipFS(inner storage.FS, sink Sink, crash *faults.CrashSet, met *Metrics) *ShipFS {
	return &ShipFS{
		inner:   inner,
		sink:    sink,
		crash:   crash,
		met:     met,
		tmpBufs: make(map[string][]byte),
		live:    make(map[string]struct{}),
	}
}

// SnapshotFrames renders the full current replica state as a frame
// sequence: the reconnect re-ship a Shipper sends so a standby that
// restarted (or fell off the stream) converges without a gap. Files still
// receiving appends (the open WAL segment) ship as open+data so later
// FrameFileData frames land on a live handle; published images ship as
// atomic FrameCkpt. A frame already queued behind the snapshot may
// duplicate a WAL record the snapshot covered — harmless, because
// recovery's replay is idempotent against exact duplicates (occurrence
// watermarks, done-mark set semantics).
func (s *ShipFS) SnapshotFrames() ([]Frame, error) {
	names, err := s.inner.List()
	if err != nil {
		return nil, err
	}
	var out []Frame
	for _, name := range names {
		if isTmp(name) {
			continue
		}
		content, err := s.inner.ReadFile(name)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		_, isLive := s.live[name]
		s.mu.Unlock()
		if isLive {
			out = append(out, Frame{Kind: FrameFileOpen, Name: name})
			if len(content) > 0 {
				out = append(out, Frame{Kind: FrameFileData, Name: name, Payload: content})
			}
		} else {
			out = append(out, Frame{Kind: FrameCkpt, Name: name, Payload: content})
		}
	}
	return out, nil
}

// Err reports the most recent ship failure (nil when replication is
// healthy). The primary's operator surface polls it; the inner FS's
// results are never affected.
func (s *ShipFS) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// ship frames and sends one mutation, bracketing it with the named crash
// points. kind tags what is being shipped for crash-point selection.
func (s *ShipFS) ship(f Frame, kind string) {
	s.crash.Hit("repl.preShip." + kind)
	err := s.sink(f)
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
	if s.met != nil {
		if err != nil {
			s.met.ReplErrors.Inc()
		} else {
			s.met.ReplShippedFrames.Inc()
			s.met.ReplShippedBytes.Add(uint64(len(f.Payload)))
		}
	}
	s.crash.Hit("repl.postShip." + kind)
}

func isTmp(name string) bool { return strings.HasSuffix(name, ".tmp") }

// walKind peeks the record kind of one WAL append so crash points can
// target occurrence vs action-done records: the WAL frames every record
// with a leading kind byte (1 = occurrence, 2 = action done).
func walKind(name string, p []byte) string {
	if !strings.HasPrefix(name, "wal-") || len(p) == 0 {
		return "data"
	}
	switch p[0] {
	case 1:
		return "occ"
	case 2:
		return "done"
	}
	return "data"
}

// Create opens a file for writing. Temp files buffer instead of shipping;
// live files announce themselves so the standby truncates its copy.
func (s *ShipFS) Create(name string) (storage.File, error) {
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if isTmp(name) {
		s.mu.Lock()
		s.tmpBufs[name] = nil
		s.mu.Unlock()
	} else {
		s.mu.Lock()
		s.live[name] = struct{}{}
		s.mu.Unlock()
		s.ship(Frame{Kind: FrameFileOpen, Name: name}, "open")
	}
	return &shipFile{fs: s, name: name, inner: f}, nil
}

// Rename publishes a file. A buffered temp file ships as one atomic
// FrameCkpt under its published name; the standby applies it with the
// same tmp→sync→rename→dirsync protocol the primary used locally.
func (s *ShipFS) Rename(oldName, newName string) error {
	if err := s.inner.Rename(oldName, newName); err != nil {
		return err
	}
	s.mu.Lock()
	buf, buffered := s.tmpBufs[oldName]
	delete(s.tmpBufs, oldName)
	s.mu.Unlock()
	if buffered {
		s.ship(Frame{Kind: FrameCkpt, Name: newName, Payload: buf}, "ckpt")
	}
	return nil
}

// Remove prunes a file here and on the standby.
func (s *ShipFS) Remove(name string) error {
	if err := s.inner.Remove(name); err != nil {
		return err
	}
	s.mu.Lock()
	_, buffered := s.tmpBufs[name]
	delete(s.tmpBufs, name)
	delete(s.live, name)
	s.mu.Unlock()
	if !buffered {
		s.ship(Frame{Kind: FrameRemove, Name: name}, "remove")
	}
	return nil
}

// ReadFile reads from the local directory.
func (s *ShipFS) ReadFile(name string) ([]byte, error) { return s.inner.ReadFile(name) }

// List lists the local directory.
func (s *ShipFS) List() ([]string, error) { return s.inner.List() }

// SyncDir makes local metadata durable. Nothing ships: the standby's
// applier syncs its own directory as it applies.
func (s *ShipFS) SyncDir() error { return s.inner.SyncDir() }

// shipFile tees one file's writes.
type shipFile struct {
	fs    *ShipFS
	name  string
	inner storage.File
}

// Write appends locally first, then ships the same bytes. Local-first
// keeps the standby a prefix of the primary's write stream; the window
// between the two is exactly what the repl.preShip crash points probe.
func (f *shipFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	if err != nil {
		return n, err
	}
	if isTmp(f.name) {
		f.fs.mu.Lock()
		f.fs.tmpBufs[f.name] = append(f.fs.tmpBufs[f.name], p...)
		f.fs.mu.Unlock()
		return n, nil
	}
	f.fs.ship(Frame{Kind: FrameFileData, Name: f.name, Payload: append([]byte(nil), p...)},
		walKind(f.name, p))
	return n, nil
}

func (f *shipFile) Sync() error  { return f.inner.Sync() }
func (f *shipFile) Close() error { return f.inner.Close() }
