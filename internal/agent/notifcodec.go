package agent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/activedb/ecaagent/internal/led"
)

// The notification wire carries two self-describing batch forms, told
// apart by their first four bytes:
//
//	text   — "ECA1|event|table|op|vNo" lines joined by '\n' (the format
//	         the generated triggers' syb_sendmsg calls emit, Figure 11);
//	binary — the ECB1 frame below, for senders under the agent's control
//	         (in-process embedders, benchmarks) that want the decode to
//	         cost nothing.
//
// ECB1 batch layout (all integers little-endian, following the WAL /
// checkpoint / replication frame conventions):
//
//	batch  := "ECB1" | count uint16 | record* | crc32(IEEE, all prior bytes) uint32
//	record := eventLen uvarint | event | tableLen uvarint | table
//	        | opLen uvarint | op | vNo uvarint
//
// The CRC closes the frame: a truncated or bit-flipped datagram fails as a
// unit (errCorruptBatch) rather than yielding a prefix of phantom
// occurrences. Text batches degrade per line instead — both behaviors are
// pinned by FuzzBinaryCodec and FuzzDecodeBatch.
const (
	binaryMagic = "ECB1"
	// binaryOverhead is the fixed framing cost: magic, count, CRC.
	binaryOverhead = len(binaryMagic) + 2 + 4
	// maxBinaryBatch bounds records per frame (the count field's range).
	maxBinaryBatch = 1 << 16
)

var (
	errShortBatch   = fmt.Errorf("agent: binary batch shorter than its framing")
	errCorruptBatch = fmt.Errorf("agent: binary batch CRC mismatch")
)

// IsBinaryBatch reports whether a datagram is an ECB1 binary batch (by
// magic; integrity is checked at decode).
func IsBinaryBatch(data []byte) bool {
	return len(data) >= len(binaryMagic) && string(data[:len(binaryMagic)]) == binaryMagic
}

// AppendBinaryBatch appends one ECB1 frame carrying prims to dst and
// returns the extended slice (allocation-free when dst has capacity).
func AppendBinaryBatch(dst []byte, prims []led.Primitive) ([]byte, error) {
	if len(prims) >= maxBinaryBatch {
		return dst, fmt.Errorf("agent: binary batch of %d notifications exceeds the %d frame limit", len(prims), maxBinaryBatch)
	}
	start := len(dst)
	dst = append(dst, binaryMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(prims)))
	for i := range prims {
		p := &prims[i]
		if p.VNo < 0 {
			return dst[:start], fmt.Errorf("agent: negative vNo %d in binary batch", p.VNo)
		}
		for _, f := range [3]string{p.Event, p.Table, p.Op} {
			if len(f) > maxNotificationLen {
				return dst[:start], fmt.Errorf("agent: oversized field (%d bytes) in binary batch", len(f))
			}
			dst = binary.AppendUvarint(dst, uint64(len(f)))
			dst = append(dst, f...)
		}
		dst = binary.AppendUvarint(dst, uint64(p.VNo))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// EncodeBinaryBatch is the allocating convenience form of
// AppendBinaryBatch.
func EncodeBinaryBatch(prims []led.Primitive) ([]byte, error) {
	return AppendBinaryBatch(nil, prims)
}

// DecodeBinaryBatch verifies and decodes one ECB1 frame through the
// process-wide name table, passing each notification to emit in wire
// order — the exported surface embedders and benchmarks use.
func DecodeBinaryBatch(data []byte, emit func(led.Primitive)) (int, error) {
	return decodeBinaryBatch(data, &wireNames, emit)
}

// decodeBinaryBatch verifies and decodes one ECB1 frame, passing each
// notification to emit in wire order. The frame is validated as a whole —
// CRC first, then a structural scan — before the first emit, so a corrupt
// frame yields zero occurrences, never a prefix. With a warmed interner
// the decode performs no allocations.
func decodeBinaryBatch(data []byte, in *interner, emit func(led.Primitive)) (int, error) {
	if len(data) < binaryOverhead {
		return 0, errShortBatch
	}
	body := data[: len(data)-4 : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, errCorruptBatch
	}
	count := int(binary.LittleEndian.Uint16(body[len(binaryMagic):]))
	records := body[len(binaryMagic)+2:]
	// Structural pass: the CRC guarantees integrity, not well-formedness —
	// a buggy encoder could still frame garbage. Walk every record before
	// emitting any.
	rest := records
	for i := 0; i < count; i++ {
		var err error
		if _, _, _, _, rest, err = scanBinaryRecord(rest); err != nil {
			return 0, err
		}
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("agent: %d trailing bytes after %d binary records", len(rest), count)
	}
	rest = records
	for i := 0; i < count; i++ {
		ev, tbl, op, vno, r, _ := scanBinaryRecord(rest)
		rest = r
		emit(led.Primitive{
			Event: in.intern(ev),
			Table: in.intern(tbl),
			Op:    in.intern(op),
			VNo:   vno,
		})
	}
	return count, nil
}

// scanBinaryRecord decodes one record, returning its raw field bytes (into
// the input, not copied) and the remaining buffer.
func scanBinaryRecord(b []byte) (event, table, op []byte, vno int, rest []byte, err error) {
	field := func() []byte {
		if err != nil {
			return nil
		}
		n, w := binary.Uvarint(b)
		if w <= 0 || n > maxNotificationLen || uint64(len(b)-w) < n {
			err = fmt.Errorf("agent: truncated binary record")
			return nil
		}
		f := b[w : w+int(n)]
		b = b[w+int(n):]
		return f
	}
	event, table, op = field(), field(), field()
	if err != nil {
		return nil, nil, nil, 0, nil, err
	}
	if len(event) == 0 || len(table) == 0 || len(op) == 0 {
		return nil, nil, nil, 0, nil, fmt.Errorf("agent: empty field in binary record")
	}
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(int(^uint(0)>>1)) {
		return nil, nil, nil, 0, nil, fmt.Errorf("agent: bad vNo in binary record")
	}
	return event, table, op, int(n), b[w:], nil
}

// parseNotificationBytes decodes one text notification line without
// allocating: field boundaries are scanned in place and the three name
// fields are resolved through the interner. Truncated, oversized and
// duplicate-field messages are rejected (the caller counts them in
// NotificationsDropped); the vNo must be a non-empty decimal that fits an
// int.
func parseNotificationBytes(msg []byte, in *interner) (event, table, op string, vno int, err error) {
	if len(msg) > maxNotificationLen {
		return "", "", "", 0, fmt.Errorf("agent: oversized notification (%d bytes)", len(msg))
	}
	m := bytes.TrimSpace(msg)
	// Exactly five '|'-separated fields, the first the format tag.
	var seps [4]int
	nsep := 0
	for i, c := range m {
		if c == '|' {
			if nsep == len(seps) {
				return "", "", "", 0, fmt.Errorf("agent: malformed notification %q", msg)
			}
			seps[nsep] = i
			nsep++
		}
	}
	if nsep != len(seps) || string(m[:seps[0]]) != "ECA1" {
		return "", "", "", 0, fmt.Errorf("agent: malformed notification %q", msg)
	}
	evB := m[seps[0]+1 : seps[1]]
	tblB := m[seps[1]+1 : seps[2]]
	opB := m[seps[2]+1 : seps[3]]
	vnoB := m[seps[3]+1:]
	if len(evB) == 0 || len(tblB) == 0 || len(opB) == 0 {
		return "", "", "", 0, fmt.Errorf("agent: empty field in notification %q", msg)
	}
	if len(vnoB) == 0 {
		return "", "", "", 0, fmt.Errorf("agent: missing vNo in notification %q", msg)
	}
	n := 0
	for _, c := range vnoB {
		if c < '0' || c > '9' {
			return "", "", "", 0, fmt.Errorf("agent: bad vNo in notification %q", msg)
		}
		d := int(c - '0')
		if n > (int(^uint(0)>>1)-d)/10 {
			return "", "", "", 0, fmt.Errorf("agent: vNo overflow in notification %q", msg)
		}
		n = n*10 + d
	}
	return in.intern(evB), in.intern(tblB), in.intern(opB), n, nil
}
