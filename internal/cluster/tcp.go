package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The TCP transport carries replication frames between real processes.
// The shipper side is a Sink: ShipFS (and the heartbeater) call it with
// frames, it writes them length-prefixed + CRC-framed, and a reader
// goroutine drains the standby's acknowledgements — a running count of
// frames applied durably — into the lag gauges. The standby side accepts
// connections, applies each frame through an Applier, and acks.
//
// Reconnection re-ships a full snapshot: the standby applies frames
// durably, but the shipper cannot know which in-flight frames survived a
// broken connection, so it replays state from the ground truth (the
// primary's own directory) rather than guessing a resume point. Snapshots
// are small — checkpoints truncate the WAL — and re-applying is
// idempotent.

// ShipperConfig configures the primary→standby stream.
type ShipperConfig struct {
	// Addr is the standby's replication listener address.
	Addr string
	// Node names this primary in the Hello frame.
	Node string
	// Tok supplies the fencing epoch announced in Hello (may be nil: epoch 0).
	Tok *Token
	// Snapshot renders the full replica state for (re)connect re-ship;
	// wire ShipFS.SnapshotFrames here. May be nil (stream-only, used when
	// a fresh standby directory is guaranteed).
	Snapshot func() ([]Frame, error)
	// SyncWindow bounds the in-flight (shipped, unacknowledged) frames in
	// synchronous mode: Ship blocks while the window is full, and Barrier
	// blocks until it is empty. 0 keeps the PR 6 behavior — fire and
	// forget, acks only feed the lag gauges.
	SyncWindow int
	// AckTimeout bounds each synchronous wait (window admission and
	// Barrier) — the per-record deadline of the sync-ship contract
	// (default 2s).
	AckTimeout time.Duration
}

const (
	// dialTimeout bounds each connection attempt to the standby.
	dialTimeout = 2 * time.Second
	// writeTimeout is the per-frame write deadline: a hung standby must
	// not wedge the primary's durability path.
	writeTimeout = 2 * time.Second
	// ackWriteTimeout bounds the standby's 8-byte ack writes: a primary
	// that stops draining acks must not wedge the standby's apply loop.
	ackWriteTimeout = 2 * time.Second
)

func (c ShipperConfig) withDefaults() ShipperConfig {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	return c
}

// ErrAckTimeout reports that the standby failed to acknowledge within the
// shipper's AckTimeout — the trigger for the sync degradation ladder.
var ErrAckTimeout = errors.New("cluster: standby acknowledgement timed out")

// Shipper streams frames to one standby over TCP.
type Shipper struct {
	cfg ShipperConfig
	met *Metrics

	mu      sync.Mutex
	ackCond *sync.Cond // signalled on ack progress / conn turnover / close
	conn    net.Conn   // nil when disconnected; guarded by mu
	closed  bool       // guarded by mu
	sent    uint64     // frames written this connection; guarded by mu
	acked   uint64     // frames acknowledged this connection; guarded by mu
	pending []int      // payload size of each unacked frame; guarded by mu
	lagB    int        // total unacked payload bytes; guarded by mu
	wbuf    []byte     // the frame being written, kept up to keptFrameBuf bytes; guarded by mu
}

// NewShipper returns a disconnected shipper; the first Ship dials.
// met may be nil.
func NewShipper(cfg ShipperConfig, met *Metrics) *Shipper {
	s := &Shipper{cfg: cfg.withDefaults(), met: met}
	s.ackCond = sync.NewCond(&s.mu)
	return s
}

// Ship sends one frame, dialing (and snapshot re-shipping) first when
// disconnected. It is the Sink a ShipFS or Heartbeater writes to. An
// error leaves the shipper disconnected; the caller's policy (ShipFS
// counts and continues) decides what that means.
//
// When the dial just re-shipped a snapshot, an FS-state frame (open,
// data, checkpoint, remove) is dropped instead of sent: ShipFS writes
// locally before shipping, so the snapshot — rendered from the local
// directory after that write — already contains this frame's effect, and
// sending it again would append its bytes twice. Non-state frames
// (heartbeats) are not in snapshots and always go out.
// Concurrent writers racing a reconnect can still duplicate a WAL record
// in the replica; recovery's replay is idempotent against that.
func (s *Shipper) Ship(f Frame) error { return s.ship(f, s.cfg.SyncWindow > 0) }

// shipNoWait is Ship without the sync window's admission wait: the
// degraded sync sink ships through it, so a standby that stopped
// acknowledging costs no frame a deadline.
func (s *Shipper) shipNoWait(f Frame) error { return s.ship(f, false) }

func (s *Shipper) ship(f Frame, admit bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cluster: shipper closed")
	}
	if s.conn == nil {
		snapped, err := s.connectLocked()
		if err != nil {
			return err
		}
		if snapped && frameInSnapshot(f.Kind) {
			return nil
		}
	}
	if admit {
		if err := s.awaitLocked(func() bool { return len(s.pending) < s.cfg.SyncWindow }); err != nil {
			return err
		}
	}
	return s.writeLocked(f)
}

// Barrier blocks until every frame shipped so far has been acknowledged
// by the standby (or the ack deadline passes). It is the durable-ack
// gate of synchronous mode: when it returns nil, everything Ship has
// accepted on this connection — including the caller's own WAL record —
// is fsynced in the standby's replica directory.
func (s *Shipper) Barrier() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cluster: shipper closed")
	}
	if s.conn == nil {
		return fmt.Errorf("cluster: sync barrier: not connected to standby")
	}
	return s.awaitLocked(func() bool { return len(s.pending) == 0 })
}

// awaitLocked blocks until pred holds, failing on close, connection
// turnover (the pending frames it was waiting on are gone — the standby
// never durably confirmed them), or the ack deadline. Caller holds s.mu;
// the lock is released while waiting.
func (s *Shipper) awaitLocked(pred func() bool) error {
	if pred() {
		return nil
	}
	conn := s.conn
	timedOut := false
	// Wall clock, not the Clock seam: like the net.Conn deadlines above,
	// the ack deadline is an I/O timeout against a real peer, not logic
	// the deterministic tests need to drive.
	timer := time.AfterFunc(s.cfg.AckTimeout, func() { //ecavet:allow nowallclock ack deadline is an I/O timeout like the conn deadlines
		s.mu.Lock()
		timedOut = true
		s.ackCond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for !pred() {
		if s.closed {
			return fmt.Errorf("cluster: shipper closed")
		}
		if s.conn != conn {
			return fmt.Errorf("cluster: connection lost before standby acknowledged")
		}
		if timedOut {
			s.dropConnLocked() // the stream is suspect; force a snapshot re-ship
			return fmt.Errorf("%w after %v (%d frames in flight)", ErrAckTimeout, s.cfg.AckTimeout, len(s.pending))
		}
		s.ackCond.Wait()
	}
	return nil
}

// frameInSnapshot reports whether a frame kind describes FS state that a
// just-shipped snapshot already covers.
func frameInSnapshot(k FrameKind) bool {
	switch k {
	case FrameCkpt, FrameFileOpen, FrameFileData, FrameRemove:
		return true
	}
	return false
}

// connectLocked dials, sends Hello, and re-ships the snapshot, reporting
// whether a snapshot went out. Caller holds s.mu.
func (s *Shipper) connectLocked() (snapshotSent bool, err error) {
	conn, err := net.DialTimeout("tcp", s.cfg.Addr, dialTimeout)
	if err != nil {
		return false, fmt.Errorf("cluster: dialing standby %s: %w", s.cfg.Addr, err)
	}
	s.conn = conn
	s.sent, s.acked, s.pending, s.lagB = 0, 0, nil, 0
	go s.drainAcks(conn)
	var epoch uint64
	if s.cfg.Tok != nil {
		epoch = s.cfg.Tok.Epoch()
	}
	hello := Frame{Kind: FrameHello, Name: s.cfg.Node, Payload: binary.AppendUvarint(nil, epoch)}
	if err := s.writeLocked(hello); err != nil {
		return false, err
	}
	if s.cfg.Snapshot == nil {
		return false, nil
	}
	frames, err := s.cfg.Snapshot()
	if err != nil {
		s.dropConnLocked()
		return false, fmt.Errorf("cluster: rendering snapshot: %w", err)
	}
	for _, sf := range frames {
		if err := s.writeLocked(sf); err != nil {
			return false, err
		}
	}
	return true, nil
}

// writeLocked frames and writes f with the per-attempt deadline, keeping
// the lag accounting. Caller holds s.mu.
func (s *Shipper) writeLocked(f Frame) error {
	// Wall clock, not the Clock seam: net.Conn deadlines are kernel
	// timers; a ManualClock cannot drive them and determinism is not at
	// stake for an I/O timeout.
	deadline := time.Now().Add(writeTimeout) //ecavet:allow nowallclock net.Conn deadlines are wall-clock by contract
	if err := s.conn.SetWriteDeadline(deadline); err != nil {
		s.dropConnLocked()
		return err
	}
	s.wbuf = AppendFrame(s.wbuf[:0], f)
	_, err := s.conn.Write(s.wbuf)
	if cap(s.wbuf) > keptFrameBuf {
		s.wbuf = nil
	}
	if err != nil {
		s.dropConnLocked()
		return fmt.Errorf("cluster: shipping frame: %w", err)
	}
	s.sent++
	s.pending = append(s.pending, len(f.Payload))
	s.lagB += len(f.Payload)
	s.gaugeLocked()
	return nil
}

// drainAcks reads cumulative applied-counts for one connection and
// retires pending frames. It exits when the connection dies.
func (s *Shipper) drainAcks(conn net.Conn) {
	var buf [8]byte
	r := bufio.NewReader(conn)
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil { //ecavet:allow iodeadline acks arrive at the standby's applying pace; Close unblocks the read
			return
		}
		applied := binary.LittleEndian.Uint64(buf[:])
		s.mu.Lock()
		if s.conn == conn {
			for s.acked < applied && len(s.pending) > 0 {
				s.lagB -= s.pending[0]
				s.pending = s.pending[1:]
				s.acked++
			}
			s.gaugeLocked()
			s.ackCond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// gaugeLocked publishes the lag gauges. Caller holds s.mu.
func (s *Shipper) gaugeLocked() {
	if s.met == nil {
		return
	}
	s.met.ReplLagRecords.Set(int64(s.sent - s.acked))
	s.met.ReplLagBytes.Set(int64(s.lagB))
}

// dropConnLocked abandons the current connection. Caller holds s.mu.
func (s *Shipper) dropConnLocked() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.ackCond.Broadcast() // waiters must observe the turnover
}

// caughtUp reports whether the standby is connected and has acknowledged
// every frame shipped on the connection.
func (s *Shipper) caughtUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil && len(s.pending) == 0
}

// Lag reports unacknowledged frames and payload bytes on the current
// connection.
func (s *Shipper) Lag() (records uint64, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent - s.acked, s.lagB
}

// Close disconnects and refuses further shipping.
func (s *Shipper) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.dropConnLocked()
	s.ackCond.Broadcast()
	return nil
}

// ListenStandby serves the standby's replication endpoint: every accepted
// connection is a primary's frame stream, applied through ap with a
// cumulative ack written back after each frame. A decode or apply error
// drops the connection — the shipper reconnects and re-ships a snapshot,
// which is the protocol's only resume mechanism — and counts as a
// replication error on the applier's metrics. stop closes the listener
// and every live connection.
func ListenStandby(addr string, ap *Applier) (boundAddr string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			mu.Lock()
			conns[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveStream(conn, ap)
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
		}
	}()
	stop = func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
	return ln.Addr().String(), stop, nil
}

// serveStream applies one primary's frame stream until it ends or breaks.
func serveStream(conn net.Conn, ap *Applier) {
	defer conn.Close()
	var applied uint64
	var buf []byte // the frame being read; kept up to keptFrameBuf bytes
	r := bufio.NewReader(conn)
	for {
		// The standby blocks here for the primary's next frame by
		// design: idle links are normal, and stop() closes the conn to
		// unblock the read.
		var f Frame
		var err error
		f, buf, err = readFrame(r, buf) //ecavet:allow iodeadline standby waits for the next frame indefinitely; stop() closes the conn
		if cap(buf) > keptFrameBuf {
			buf = nil
		}
		if err != nil {
			return // EOF, torn tail, or corruption: shipper re-snapshots
		}
		if err := ap.Apply(f); err != nil {
			return
		}
		applied++
		var ack [8]byte
		binary.LittleEndian.PutUint64(ack[:], applied)
		deadline := time.Now().Add(ackWriteTimeout) //ecavet:allow nowallclock net.Conn deadlines are wall-clock by contract
		if err := conn.SetWriteDeadline(deadline); err != nil {
			return
		}
		if _, err := conn.Write(ack[:]); err != nil {
			return
		}
	}
}
