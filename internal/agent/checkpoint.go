package agent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/storage"
)

// Checkpoint file format (ckpt-<epoch>):
//
//	magic "ECACKPT1" | version uint32 LE | epoch uint64 LE
//	payloadLen uint64 LE | payload | crc32(payload) uint32 LE
//
// The payload is an internal/storage codec stream holding the delivery
// watermarks, the LED StateSnapshot's node states, the agent's held
// DEFERRED firings, the ledger's pending actions and the dead-letter
// queue. The held firings sit where older builds wrote the detector's
// deferred queue, in the same layout. Between them and the pending
// actions sits an outstanding-firing section, written empty: older builds
// filled it, and the reader maps its firings into pending actions. The
// file is written to a .tmp name, fsynced, renamed into place and the
// directory fsynced, so a checkpoint either exists completely or not at
// all; the CRC catches bit rot and torn writes that slip past the rename
// barrier. Decoding is all-or-nothing —
// any structural damage is an error and the caller falls back to the
// previous epoch (or a cold start), never to partially loaded state.

const (
	ckptMagic = "ECACKPT1"
	// ckptVersion 2 added the CEP window section to each context state
	// (Ring + NextBound, DESIGN.md §12). Version 1 images decode with
	// empty window state — correct, since no v1 build had window nodes.
	ckptVersion   = 2
	ckptVersionV1 = 1
)

// ckptWatermark is one event's persisted delivery watermark.
type ckptWatermark struct {
	Event, Table, Op string
	Last             int
}

// ckptFiring is one held DEFERRED firing (or, in an older image's
// outstanding section, one firing the detector had not yet handed off).
type ckptFiring struct {
	Rule string
	Occ  led.OccState
}

// ckptPending is one not-yet-done ledger entry.
type ckptPending struct {
	Key, Rule string
	Occ       led.OccState
}

// ckptDead is one persisted dead-letter entry.
type ckptDead struct {
	Rule, Event string
	Occ         led.OccState
	HasOcc      bool
	Messages    []string
	Err         string
}

// checkpointData is everything a checkpoint round-trips.
type checkpointData struct {
	Watermarks map[string]ckptWatermark
	LED        *led.StateSnapshot
	Deferred   []ckptFiring
	Pending    []ckptPending
	DLQ        []ckptDead
}

func writeOccState(w *storage.Writer, o led.OccState) {
	w.WriteString(o.Event)
	w.WriteUint(uint64(o.Context))
	w.WriteTime(o.At)
	w.WriteUint(uint64(len(o.Constituents)))
	for _, c := range o.Constituents {
		w.WriteString(c.Event)
		w.WriteString(c.Table)
		w.WriteString(c.Op)
		w.WriteInt(int64(c.VNo))
		w.WriteTime(c.At)
	}
}

func readOccState(r *storage.Reader) led.OccState {
	o := led.OccState{Event: r.String(), Context: led.Context(r.Uint()), At: r.Time()}
	for range r.Count() {
		o.Constituents = append(o.Constituents, led.Primitive{
			Event: r.String(), Table: r.String(), Op: r.String(), VNo: int(r.Int()), At: r.Time(),
		})
	}
	return o
}

func writeOccStates(w *storage.Writer, os []led.OccState) {
	w.WriteUint(uint64(len(os)))
	for _, o := range os {
		writeOccState(w, o)
	}
}

func readOccStates(r *storage.Reader) []led.OccState {
	out := make([]led.OccState, r.Count())
	for i := range out {
		out[i] = readOccState(r)
	}
	return out
}

func writeFirings(w *storage.Writer, fs []ckptFiring) {
	w.WriteUint(uint64(len(fs)))
	for _, f := range fs {
		w.WriteString(f.Rule)
		writeOccState(w, f.Occ)
	}
}

func readFirings(r *storage.Reader) []ckptFiring {
	var out []ckptFiring
	for range r.Count() {
		out = append(out, ckptFiring{Rule: r.String(), Occ: readOccState(r)})
	}
	return out
}

func boolUint(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// encodeCheckpoint renders the complete file image for one epoch, always
// at the current format version.
func encodeCheckpoint(epoch uint64, c *checkpointData) []byte {
	var buf bytes.Buffer
	w := storage.NewWriter(&buf)

	events := make([]string, 0, len(c.Watermarks))
	for ev := range c.Watermarks {
		events = append(events, ev)
	}
	sort.Strings(events)
	w.WriteUint(uint64(len(events)))
	for _, ev := range events {
		wm := c.Watermarks[ev]
		w.WriteString(wm.Event)
		w.WriteString(wm.Table)
		w.WriteString(wm.Op)
		w.WriteInt(int64(wm.Last))
	}

	w.WriteUint(uint64(len(c.LED.Nodes)))
	for _, ns := range c.LED.Nodes {
		w.WriteString(ns.Path)
		w.WriteUint(uint64(ns.Kind))
		w.WriteUint(uint64(len(ns.Contexts)))
		for _, cs := range ns.Contexts {
			w.WriteUint(uint64(cs.Ctx))
			writeOccStates(w, cs.Left)
			writeOccStates(w, cs.Right)
			w.WriteUint(uint64(len(cs.Windows)))
			for _, ws := range cs.Windows {
				writeOccState(w, ws.Start)
				writeOccStates(w, ws.Mids)
				w.WriteTime(ws.Next)
			}
			w.WriteUint(uint64(len(cs.Plus)))
			for _, ps := range cs.Plus {
				writeOccState(w, ps.Occ)
				w.WriteTime(ps.At)
			}
			w.WriteUint(boolUint(cs.Done))
			writeOccStates(w, cs.Ring)
			w.WriteTime(cs.NextBound)
		}
	}
	writeFirings(w, c.Deferred)
	writeFirings(w, nil) // outstanding firings: the ledger's pending section holds them

	w.WriteUint(uint64(len(c.Pending)))
	for _, p := range c.Pending {
		w.WriteString(p.Key)
		w.WriteString(p.Rule)
		writeOccState(w, p.Occ)
	}

	w.WriteUint(uint64(len(c.DLQ)))
	for _, d := range c.DLQ {
		w.WriteString(d.Rule)
		w.WriteString(d.Event)
		w.WriteUint(boolUint(d.HasOcc))
		if d.HasOcc {
			writeOccState(w, d.Occ)
		}
		w.WriteUint(uint64(len(d.Messages)))
		for _, m := range d.Messages {
			w.WriteString(m)
		}
		w.WriteString(d.Err)
	}
	_ = w.Flush() // a bytes.Buffer never fails a write
	payload := buf.Bytes()

	out := []byte(ckptMagic)
	out = binary.LittleEndian.AppendUint32(out, ckptVersion)
	out = binary.LittleEndian.AppendUint64(out, epoch)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// decodeCheckpoint validates and decodes a checkpoint image, returning
// the embedded epoch. Every failure is an error — truncation, bit flips
// (CRC), a version from a different build — and leaves the caller with
// nothing rather than half a state.
func decodeCheckpoint(data []byte) (*checkpointData, uint64, error) {
	headerLen := len(ckptMagic) + 4 + 8 + 8
	if len(data) < headerLen+4 {
		return nil, 0, fmt.Errorf("agent: checkpoint: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, 0, fmt.Errorf("agent: checkpoint: bad magic %q", data[:len(ckptMagic)])
	}
	off := len(ckptMagic)
	version := binary.LittleEndian.Uint32(data[off:])
	if version != ckptVersion && version != ckptVersionV1 {
		return nil, 0, fmt.Errorf("agent: checkpoint: unsupported version %d", version)
	}
	off += 4
	epoch := binary.LittleEndian.Uint64(data[off:])
	off += 8
	plen := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if plen != uint64(len(data)-off-4) {
		return nil, 0, fmt.Errorf("agent: checkpoint: payload length %d does not match file size", plen)
	}
	payload := data[off : off+int(plen)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+int(plen):]) {
		return nil, 0, fmt.Errorf("agent: checkpoint: payload CRC mismatch")
	}

	r := storage.NewReader(payload)
	r.Expect(storage.Magic)
	c := &checkpointData{Watermarks: make(map[string]ckptWatermark), LED: &led.StateSnapshot{}}
	for range r.Count() {
		wm := ckptWatermark{Event: r.String(), Table: r.String(), Op: r.String(), Last: int(r.Int())}
		c.Watermarks[wm.Event] = wm
	}
	for range r.Count() {
		ns := led.NodeState{Path: r.String(), Kind: int(r.Uint())}
		for range r.Count() {
			cs := led.CtxState{Ctx: led.Context(r.Uint()), Left: readOccStates(r), Right: readOccStates(r)}
			for range r.Count() {
				cs.Windows = append(cs.Windows, led.WindowState{Start: readOccState(r), Mids: readOccStates(r), Next: r.Time()})
			}
			for range r.Count() {
				cs.Plus = append(cs.Plus, led.PlusState{Occ: readOccState(r), At: r.Time()})
			}
			cs.Done = r.Uint() == 1
			if version >= 2 {
				cs.Ring = readOccStates(r)
				cs.NextBound = r.Time()
			}
			ns.Contexts = append(ns.Contexts, cs)
		}
		c.LED.Nodes = append(c.LED.Nodes, ns)
	}
	c.Deferred = readFirings(r)
	outstanding := readFirings(r)
	for range r.Count() {
		c.Pending = append(c.Pending, ckptPending{Key: r.String(), Rule: r.String(), Occ: readOccState(r)})
	}
	// An image from a build whose detector kept its own outstanding set:
	// those firings are ledger entries like any other pending action.
	for _, f := range outstanding {
		c.Pending = append(c.Pending, ckptPending{Key: actionKey(f.Rule, led.OccFromState(f.Occ)), Rule: f.Rule, Occ: f.Occ})
	}
	for range r.Count() {
		d := ckptDead{Rule: r.String(), Event: r.String(), HasOcc: r.Uint() == 1}
		if d.HasOcc {
			d.Occ = readOccState(r)
		}
		for range r.Count() {
			d.Messages = append(d.Messages, r.String())
		}
		d.Err = r.String()
		c.DLQ = append(c.DLQ, d)
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("agent: checkpoint: %w", err)
	}
	return c, epoch, nil
}
