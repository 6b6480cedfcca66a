package agent

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// It names its rule rather than holding the live *triggerInfo, because
// the rule may have been dropped between the cut and the restart.
type ckptFiring struct {
	Rule string
	Occ  *led.Occ
}

// checkpointData is everything a checkpoint round-trips. Each durable
// fact keeps the Go type it has in the running agent: occurrences are
// *led.Occ, pending actions are the ledger's own entries, dead letters
// are ActionResults (Err round-trips as its text).
type checkpointData struct {
	Watermarks map[string]ckptWatermark
	LED        *led.StateSnapshot
	Deferred   []ckptFiring
	Pending    []*ledgerEntry
	DLQ        []ActionResult
}

func writeOcc(w *storage.Writer, o *led.Occ) {
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

func readOcc(r *storage.Reader) *led.Occ {
	o := &led.Occ{Event: r.String(), Context: led.Context(r.Uint()), At: r.Time()}
	for range r.Count() {
		o.Constituents = append(o.Constituents, led.Primitive{
			Event: r.String(), Table: r.String(), Op: r.String(), VNo: int(r.Int()), At: r.Time(),
		})
	}
	return o
}

func writeOccs(w *storage.Writer, os []*led.Occ) {
	w.WriteUint(uint64(len(os)))
	for _, o := range os {
		writeOcc(w, o)
	}
}

func readOccs(r *storage.Reader) []*led.Occ {
	out := make([]*led.Occ, r.Count())
	for i := range out {
		out[i] = readOcc(r)
	}
	return out
}

func writeFirings(w *storage.Writer, fs []ckptFiring) {
	w.WriteUint(uint64(len(fs)))
	for _, f := range fs {
		w.WriteString(f.Rule)
		writeOcc(w, f.Occ)
	}
}

func readFirings(r *storage.Reader) []ckptFiring {
	var out []ckptFiring
	for range r.Count() {
		out = append(out, ckptFiring{Rule: r.String(), Occ: readOcc(r)})
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
			writeOccs(w, cs.Left)
			writeOccs(w, cs.Right)
			w.WriteUint(uint64(len(cs.Windows)))
			for _, ws := range cs.Windows {
				writeOcc(w, ws.Start)
				writeOccs(w, ws.Mids)
				w.WriteTime(ws.Next)
			}
			w.WriteUint(uint64(len(cs.Plus)))
			for _, ps := range cs.Plus {
				writeOcc(w, ps.Occ)
				w.WriteTime(ps.At)
			}
			w.WriteUint(boolUint(cs.Done))
			writeOccs(w, cs.Ring)
			w.WriteTime(cs.NextBound)
		}
	}
	writeFirings(w, c.Deferred)
	writeFirings(w, nil) // outstanding firings: the ledger's pending section holds them

	w.WriteUint(uint64(len(c.Pending)))
	for _, e := range c.Pending {
		w.WriteString(e.key)
		w.WriteString(e.rule)
		writeOcc(w, e.occ)
	}

	w.WriteUint(uint64(len(c.DLQ)))
	for _, d := range c.DLQ {
		w.WriteString(d.Rule)
		w.WriteString(d.Event)
		w.WriteUint(boolUint(d.Occ != nil))
		if d.Occ != nil {
			writeOcc(w, d.Occ)
		}
		w.WriteUint(uint64(len(d.Messages)))
		for _, m := range d.Messages {
			w.WriteString(m)
		}
		var msg string
		if d.Err != nil {
			msg = d.Err.Error()
		}
		w.WriteString(msg)
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
			cs := led.CtxState{Ctx: led.Context(r.Uint()), Left: readOccs(r), Right: readOccs(r)}
			for range r.Count() {
				cs.Windows = append(cs.Windows, led.WindowState{Start: readOcc(r), Mids: readOccs(r), Next: r.Time()})
			}
			for range r.Count() {
				cs.Plus = append(cs.Plus, led.PlusState{Occ: readOcc(r), At: r.Time()})
			}
			cs.Done = r.Uint() == 1
			if version >= 2 {
				cs.Ring = readOccs(r)
				cs.NextBound = r.Time()
			}
			ns.Contexts = append(ns.Contexts, cs)
		}
		c.LED.Nodes = append(c.LED.Nodes, ns)
	}
	c.Deferred = readFirings(r)
	outstanding := readFirings(r)
	for range r.Count() {
		c.Pending = append(c.Pending, &ledgerEntry{key: r.String(), rule: r.String(), occ: readOcc(r)})
	}
	// An image from a build whose detector kept its own outstanding set:
	// those firings are ledger entries like any other pending action.
	for _, f := range outstanding {
		c.Pending = append(c.Pending, &ledgerEntry{key: actionKey(f.Rule, f.Occ), rule: f.Rule, occ: f.Occ})
	}
	for range r.Count() {
		d := ActionResult{Rule: r.String(), Event: r.String()}
		if r.Uint() == 1 {
			d.Occ = readOcc(r)
		}
		for range r.Count() {
			d.Messages = append(d.Messages, r.String())
		}
		if msg := r.String(); msg != "" {
			d.Err = errors.New(msg)
		}
		c.DLQ = append(c.DLQ, d)
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("agent: checkpoint: %w", err)
	}
	return c, epoch, nil
}
