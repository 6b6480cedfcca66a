package agent

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/storage"
)

// Write-ahead journal of what happened since the last checkpoint. Two
// record kinds cover the whole delta:
//
//   - an occurrence record for every primitive occurrence the tracker
//     accepted (appended before the LED sees it, so a crash between
//     append and detection replays the occurrence instead of losing it);
//   - an action-done record for every rule action whose procedure call
//     returned (appended before the completion is acknowledged, so a
//     crash after it never re-runs the action).
//
// Recovery = restore the checkpoint, then re-feed the occurrence records
// in order while marking done actions off in the ledger; whatever the
// journal proves already ran is skipped, everything else runs once.
//
// File layout (wal-<epoch>):
//
//	magic "ECAWAL01" | epoch uint64 LE
//	record := kind byte | payloadLen uvarint | payload | crc32(kind+payload) uint32 LE
//
// A torn tail — the suffix an unsynced crash may shred — is detected by
// the length/CRC frame and cleanly ends replay; anything durable before
// the tear is still recovered. A wrong magic is a version skew and an
// error, never a partial load.

const walMagic = "ECAWAL01"

const (
	walOccKind  byte = 1 // primitive occurrence accepted by the tracker
	walDoneKind byte = 2 // rule action completed
)

// walRecord is one decoded journal record: an occurrence record carries
// the tracker's led.Primitive, an action-done record its ledger key.
type walRecord struct {
	kind byte
	occ  led.Primitive // walOccKind
	key  string        // walDoneKind
}

// walHeader renders the file header for one journal epoch.
func walHeader(epoch uint64) []byte {
	b := []byte(walMagic)
	return binary.LittleEndian.AppendUint64(b, epoch)
}

// encodeWALRecord frames one record.
func encodeWALRecord(r walRecord) []byte {
	p := make([]byte, 0, 128)
	switch r.kind {
	case walOccKind:
		p = storage.AppendString(p, r.occ.Event)
		p = storage.AppendString(p, r.occ.Table)
		p = storage.AppendString(p, r.occ.Op)
		p = storage.AppendInt(p, int64(r.occ.VNo))
		p = storage.AppendTime(p, r.occ.At)
	case walDoneKind:
		p = storage.AppendString(p, r.key)
	}
	frame := make([]byte, 0, 1+binary.MaxVarintLen64+len(p)+4)
	frame = storage.AppendUint(append(frame, r.kind), uint64(len(p)))
	frame = append(frame, p...)
	crc := crc32.Update(crc32.ChecksumIEEE(frame[:1]), crc32.IEEETable, p)
	return binary.LittleEndian.AppendUint32(frame, crc)
}

// parseWAL decodes a journal image. Structural damage confined to the
// tail (a torn unsynced suffix) ends the scan and sets torn; records
// before the tear are returned. A bad magic on a non-empty header is a
// version skew and returns an error with no records.
func parseWAL(data []byte) (epoch uint64, recs []walRecord, torn bool, err error) {
	headerLen := len(walMagic) + 8
	if len(data) < headerLen {
		// The header itself was shredded (crash before its sync); nothing
		// durable was ever framed, so there is nothing to replay.
		return 0, nil, len(data) > 0, nil
	}
	if string(data[:len(walMagic)]) != walMagic {
		return 0, nil, false, fmt.Errorf("agent: wal: bad magic %q", data[:len(walMagic)])
	}
	epoch = binary.LittleEndian.Uint64(data[len(walMagic):headerLen])
	off := headerLen
	for off < len(data) {
		kind := data[off]
		if kind != walOccKind && kind != walDoneKind {
			return epoch, recs, true, nil
		}
		plen, sz := binary.Uvarint(data[off+1:])
		o := off + 1 + sz
		if sz <= 0 || plen > uint64(len(data)-o) || len(data)-o-int(plen) < 4 {
			return epoch, recs, true, nil
		}
		payload := data[o : o+int(plen)]
		crcOff := o + int(plen)
		crc := crc32.Update(crc32.ChecksumIEEE(data[off:off+1]), crc32.IEEETable, payload)
		if binary.LittleEndian.Uint32(data[crcOff:crcOff+4]) != crc {
			return epoch, recs, true, nil
		}
		r, ok := parseWALPayload(kind, payload)
		if !ok {
			return epoch, recs, true, nil
		}
		recs = append(recs, r)
		off = crcOff + 4
	}
	return epoch, recs, false, nil
}

// parseWALPayload decodes one record's payload, which must be exactly
// the fields its kind carries.
func parseWALPayload(kind byte, p []byte) (walRecord, bool) {
	r := walRecord{kind: kind}
	d := storage.NewReader(p)
	switch kind {
	case walOccKind:
		r.occ = led.Primitive{Event: d.String(), Table: d.String(), Op: d.String(), VNo: int(d.Int()), At: d.Time()}
	case walDoneKind:
		r.key = d.String()
	}
	return r, d.Err() == nil && d.Len() == 0
}
