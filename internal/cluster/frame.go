package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The replication wire format. The payloads themselves are PR 4's
// checkpoint and WAL byte formats, reused verbatim — this layer only
// frames them for a byte stream:
//
//	frame := bodyLen uint32 LE | body | crc32(body) uint32 LE
//	body  := kind byte | nameLen uvarint | name | payload
//
// The length prefix lets a reader take exactly one frame off a TCP
// stream; the trailing CRC rejects torn or damaged tails the same way
// the WAL's per-record CRC does. Decoding distinguishes "incomplete —
// wait for more bytes" (ErrShortFrame) from "corrupt — the stream is
// damaged here and nothing after this point is trustworthy"
// (ErrCorruptFrame), because a replica applying a torn tail as if it
// were data would diverge silently.

// FrameKind discriminates replication frames.
type FrameKind byte

const (
	// FrameHello opens a stream: Name is the sending node's ID, Payload
	// is its current fencing epoch (uvarint).
	FrameHello FrameKind = 1
	// FrameCkpt carries one complete checkpoint image (the ECACKPT1
	// format); Name is the published file name (ckpt-N). The receiver
	// applies it atomically: tmp → sync → rename → dir sync.
	FrameCkpt FrameKind = 2
	// FrameFileOpen announces that Name (wal-N, rules.log, ...) was
	// created/truncated; subsequent FrameFileData frames append to it.
	FrameFileOpen FrameKind = 3
	// FrameFileData appends Payload to the open file Name.
	FrameFileData FrameKind = 4
	// FrameRemove prunes file Name on the receiver.
	FrameRemove FrameKind = 5
	// FrameRule broadcasts one installed rule's DDL (Payload) from the
	// defining node (Name) to cluster members, so every member's rule
	// log records the full catalog.
	FrameRule FrameKind = 6
	// Kind 7 is reserved (retired); never reuse it.
	// FrameHeartbeat is the liveness beacon: Name is the beating node,
	// Payload is seq uvarint | epoch uvarint.
	FrameHeartbeat FrameKind = 8
)

// maxFrameBody bounds a single frame. Checkpoint images dominate; 64 MiB
// of detector state is far beyond anything the agent produces, so a
// larger length prefix is corruption, not data.
const maxFrameBody = 64 << 20

// Frame is one decoded replication frame.
type Frame struct {
	Kind    FrameKind
	Name    string
	Payload []byte
}

// ErrShortFrame reports that the buffer ends before the frame does: not
// damage, just an incomplete read.
var ErrShortFrame = errors.New("cluster: short frame (need more bytes)")

// ErrCorruptFrame reports structural damage: bad CRC, oversized length,
// unknown kind. The stream must not be trusted past this point.
var ErrCorruptFrame = errors.New("cluster: corrupt frame")

// AppendFrame appends f's encoding to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	body := []byte{byte(f.Kind)}
	body = binary.AppendUvarint(body, uint64(len(f.Name)))
	body = append(body, f.Name...)
	body = append(body, f.Payload...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// EncodeFrame renders one frame.
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, f) }

// DecodeReplFrame decodes the first frame in b, returning the frame and
// the number of bytes it consumed. It never panics on hostile input —
// the fuzz target holds it to that.
func DecodeReplFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, ErrShortFrame
	}
	bodyLen := binary.LittleEndian.Uint32(b)
	if bodyLen < 1 || bodyLen > maxFrameBody {
		return Frame{}, 0, fmt.Errorf("%w: body length %d", ErrCorruptFrame, bodyLen)
	}
	total := 4 + int(bodyLen) + 4
	if len(b) < total {
		return Frame{}, 0, ErrShortFrame
	}
	body := b[4 : 4+bodyLen]
	wantCRC := binary.LittleEndian.Uint32(b[4+bodyLen:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return Frame{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorruptFrame)
	}
	f := Frame{Kind: FrameKind(body[0])}
	switch f.Kind {
	case FrameHello, FrameCkpt, FrameFileOpen, FrameFileData, FrameRemove, FrameRule, FrameHeartbeat:
	default:
		return Frame{}, 0, fmt.Errorf("%w: unknown kind %d", ErrCorruptFrame, body[0])
	}
	nameLen, n := binary.Uvarint(body[1:])
	if n <= 0 || nameLen > uint64(len(body)-1-n) {
		return Frame{}, 0, fmt.Errorf("%w: name length", ErrCorruptFrame)
	}
	off := 1 + n
	f.Name = string(body[off : off+int(nameLen)])
	off += int(nameLen)
	if off < len(body) {
		f.Payload = append([]byte(nil), body[off:]...)
	}
	return f, total, nil
}

// WriteFrame writes one frame to a stream.
func WriteFrame(w io.Writer, f Frame) error {
	_, err := w.Write(EncodeFrame(f))
	return err
}

// ReadFrame reads exactly one frame from a stream. io.EOF at a frame
// boundary is returned as-is; EOF inside a frame becomes
// io.ErrUnexpectedEOF (a torn stream).
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:])
	if bodyLen < 1 || bodyLen > maxFrameBody {
		return Frame{}, fmt.Errorf("%w: body length %d", ErrCorruptFrame, bodyLen)
	}
	buf := make([]byte, 4+int(bodyLen)+4)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := DecodeReplFrame(buf)
	return f, err
}

// heartbeatPayload encodes a beacon's sequence number and fencing epoch.
func heartbeatPayload(seq, epoch uint64) []byte {
	b := binary.AppendUvarint(nil, seq)
	return binary.AppendUvarint(b, epoch)
}

// decodeHeartbeat parses a FrameHeartbeat payload.
func decodeHeartbeat(p []byte) (seq, epoch uint64, err error) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: heartbeat seq", ErrCorruptFrame)
	}
	epoch, m := binary.Uvarint(p[n:])
	if m <= 0 {
		return 0, 0, fmt.Errorf("%w: heartbeat epoch", ErrCorruptFrame)
	}
	return seq, epoch, nil
}
