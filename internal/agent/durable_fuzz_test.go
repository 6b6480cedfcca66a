package agent

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/led"
)

// fuzzCheckpointImage builds a small valid checkpoint image for seeding.
func fuzzCheckpointImage() []byte {
	at := time.Unix(1700000000, 0).UTC()
	c := &checkpointData{
		Watermarks: map[string]ckptWatermark{
			"db.u.e": {Event: "db.u.e", Table: "db.u.t", Op: "insert", Last: 3},
		},
		LED: &led.StateSnapshot{
			Nodes: []led.NodeState{{
				Path: "db.u.comp",
				Kind: 2,
				Contexts: []led.CtxState{{
					Ctx:  led.Chronicle,
					Left: []*led.Occ{{Event: "db.u.e", At: at}},
				}},
			}},
		},
		Pending: []*ledgerEntry{{key: "k", rule: "db.u.r", occ: &led.Occ{Event: "db.u.e", At: at}}},
		DLQ:     []ActionResult{{Rule: "db.u.r", Event: "db.u.e", Err: errors.New("x")}},
	}
	return encodeCheckpoint(3, c)
}

// fuzzCheckpointImageCEP builds a valid image whose LED snapshot carries
// the v2 window section (ring + armed boundary), so the fuzzer explores
// mutations of the new bytes too.
func fuzzCheckpointImageCEP() []byte {
	at := time.Unix(1700000000, 0).UTC()
	c := &checkpointData{
		Watermarks: map[string]ckptWatermark{},
		LED: &led.StateSnapshot{
			Nodes: []led.NodeState{{
				Path: "db.u.win",
				Kind: 11, // kWindow
				Contexts: []led.CtxState{{
					Ctx: led.Recent,
					Ring: []*led.Occ{{Event: "db.u.e", Context: led.Recent, At: at,
						Constituents: []led.Primitive{{Event: "db.u.e", Table: "db.u.t", Op: "insert", VNo: 2, At: at}}}},
					NextBound: at.Add(5 * time.Second),
				}},
			}},
		},
	}
	return encodeCheckpoint(7, c)
}

// fuzzCheckpointImageV1 is a format-version-1 image (testdata/ckpt-v1-fuzz,
// written by the last build that could still encode v1): one CHRONICLE
// context holding one left occurrence.
func fuzzCheckpointImageV1() []byte {
	img, err := os.ReadFile("testdata/ckpt-v1-fuzz")
	if err != nil {
		panic(err)
	}
	return img
}

// FuzzLoadCheckpoint: a checkpoint image that is truncated, bit-flipped,
// or version-skewed must produce an error — never a panic, and never a
// partially decoded state alongside one.
func FuzzLoadCheckpoint(f *testing.F) {
	img := fuzzCheckpointImage()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:8])
	f.Add([]byte{})
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	skew := append([]byte(nil), img...)
	skew[8] = 0x7f // version field
	f.Add(skew)
	badMagic := append([]byte(nil), img...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	cep := fuzzCheckpointImageCEP()
	f.Add(cep)
	f.Add(cep[:len(cep)-9]) // truncated inside the window section
	cepFlip := append([]byte(nil), cep...)
	cepFlip[len(cepFlip)-12] ^= 0x20
	f.Add(cepFlip)
	f.Add(fuzzCheckpointImageV1())
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, _, err := decodeCheckpoint(data)
		if err != nil && ck != nil {
			t.Fatalf("decodeCheckpoint returned partial state alongside error %v", err)
		}
		if err == nil && ck == nil {
			t.Fatal("decodeCheckpoint returned neither state nor error")
		}
	})
}

// fuzzWALImage builds the seed journal: an epoch-5 header, one
// occurrence record and one action-done record.
func fuzzWALImage() []byte {
	at := time.Unix(1700000000, 0).UTC()
	buf := walHeader(5)
	buf = append(buf, encodeWALRecord(walRecord{
		kind: walOccKind, occ: led.Primitive{Event: "db.u.e", Table: "db.u.t", Op: "insert", VNo: 1, At: at}})...)
	return append(buf, encodeWALRecord(walRecord{kind: walDoneKind, key: "abc"})...)
}

// FuzzReplayWAL: a journal that is truncated or corrupted mid-record must
// yield the valid prefix with torn=true; damaged headers must error; no
// input may panic.
func FuzzReplayWAL(f *testing.F) {
	buf := fuzzWALImage()
	f.Add(buf)
	f.Add(buf[:len(buf)-3]) // torn tail
	f.Add(buf[:16])         // header only
	f.Add(buf[:7])          // torn header
	f.Add([]byte{})
	flipped := append([]byte(nil), buf...)
	flipped[20] ^= 0x10
	f.Add(flipped)
	badMagic := append([]byte(nil), buf...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, torn, err := parseWAL(data)
		if err != nil && len(recs) != 0 {
			t.Fatalf("parseWAL returned %d records alongside error %v", len(recs), err)
		}
		if err != nil && torn {
			t.Fatalf("parseWAL reported both torn and error %v", err)
		}
	})
}

// TestWALDecodeDamage pins the three damage classes the fuzz targets
// explore: torn tails keep the valid prefix, header damage is an error,
// and short files are torn (an interrupted creation), not errors.
func TestWALDecodeDamage(t *testing.T) {
	at := time.Unix(1700000000, 0).UTC()
	buf := walHeader(5)
	buf = append(buf, encodeWALRecord(walRecord{
		kind: walOccKind, occ: led.Primitive{Event: "db.u.e", Table: "db.u.t", Op: "insert", VNo: 1, At: at}})...)
	r2 := encodeWALRecord(walRecord{kind: walDoneKind, key: "abc"})
	buf = append(buf, r2...)

	epoch, recs, torn, err := parseWAL(buf)
	if err != nil || torn || epoch != 5 || len(recs) != 2 {
		t.Fatalf("intact journal: epoch=%d recs=%d torn=%v err=%v", epoch, len(recs), torn, err)
	}
	if recs[0].occ.VNo != 1 || !recs[0].occ.At.Equal(at) || recs[1].key != "abc" {
		t.Fatalf("decoded records: %+v", recs)
	}

	_, recs, torn, err = parseWAL(buf[:len(buf)-2])
	if err != nil || !torn || len(recs) != 1 {
		t.Fatalf("torn tail: recs=%d torn=%v err=%v", len(recs), torn, err)
	}

	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)-1] ^= 0xff // CRC of the last record
	_, recs, torn, err = parseWAL(flipped)
	if err != nil || !torn || len(recs) != 1 {
		t.Fatalf("bit flip: recs=%d torn=%v err=%v", len(recs), torn, err)
	}

	badMagic := append([]byte(nil), buf...)
	badMagic[3] = '!'
	if _, _, _, err := parseWAL(badMagic); err == nil {
		t.Fatal("damaged magic accepted")
	}

	if _, recs, torn, err := parseWAL(buf[:7]); err != nil || !torn || len(recs) != 0 {
		t.Fatalf("short file: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

// TestDurableImagesPinned pins the bytes of the seed checkpoint and
// journal images: a change to the Go types that carry a checkpoint or a
// journal record must not change what lands on disk. Only the struct
// literals in the image builders may move with the types; never the
// hashes.
func TestDurableImagesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		img  []byte
		want string
	}{
		{"checkpoint", fuzzCheckpointImage(), "e4b76a332006598087ea0e86ab32d714e6d4b92a411cac80fd3577dd4153eeb9"},
		{"checkpoint-cep", fuzzCheckpointImageCEP(), "c9554b2c9c1d26492108503c21ce284e8441869f1817955af1f6af51827bc73d"},
		{"wal", fuzzWALImage(), "f17d2ad9bcafd9c10fa6b6e7a5d8e39cdc1b118cd976b8346c739af07a71c0ed"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.img)); got != c.want {
			t.Errorf("%s image: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCheckpointDecodeDamage pins the checkpoint damage classes.
func TestCheckpointDecodeDamage(t *testing.T) {
	img := fuzzCheckpointImage()
	if _, _, err := decodeCheckpoint(img); err != nil {
		t.Fatalf("intact image rejected: %v", err)
	}
	if _, _, err := decodeCheckpoint(img[:len(img)-1]); err == nil {
		t.Fatal("truncated image accepted")
	}
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x01
	if _, _, err := decodeCheckpoint(flipped); err == nil {
		t.Fatal("bit-flipped image accepted")
	}
	skew := append([]byte(nil), img...)
	skew[8] = 0x7f
	if _, _, err := decodeCheckpoint(skew); err == nil {
		t.Fatal("version-skewed image accepted")
	}
	if _, _, err := decodeCheckpoint(nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

// TestAllocsWALRecord: framing one journal record costs two allocations,
// the payload and the frame, for either kind.
func TestAllocsWALRecord(t *testing.T) {
	at := time.Unix(1700000000, 42).UTC()
	for _, r := range []walRecord{
		{kind: walOccKind, occ: led.Primitive{Event: "sentineldb.sharma.addStk", Table: "sentineldb.sharma.stock", Op: "insert", VNo: 123456, At: at}},
		{kind: walDoneKind, key: "0123456789abcdef"},
	} {
		if avg := testing.AllocsPerRun(100, func() { _ = encodeWALRecord(r) }); avg > 2 {
			t.Errorf("kind %d: %.1f allocs/op, want ≤ 2", r.kind, avg)
		}
	}
}
