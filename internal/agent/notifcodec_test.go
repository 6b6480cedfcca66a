package agent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/led"
)

// appendCRC closes a hand-built frame body the way the encoder does.
func appendCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func mustEncode(tb testing.TB, prims []led.Primitive) []byte {
	tb.Helper()
	buf, err := EncodeBinaryBatch(prims)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

func decodeAll(tb testing.TB, data []byte) ([]led.Primitive, error) {
	tb.Helper()
	var out []led.Primitive
	var in interner
	n, err := decodeBinaryBatch(data, &in, func(p led.Primitive) { out = append(out, p) })
	if err == nil && n != len(out) {
		tb.Fatalf("decode reported %d records but emitted %d", n, len(out))
	}
	return out, err
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	prims := []led.Primitive{
		{Event: "db.u.ev", Table: "db.u.tbl", Op: "insert", VNo: 1},
		{Event: "db.u.ev2", Table: "db.u.tbl2", Op: "delete", VNo: 1 << 40},
		// Binary fields may carry bytes the text format cannot.
		{Event: "e|with\npipes", Table: "t", Op: "update", VNo: 0},
	}
	buf := mustEncode(t, prims)
	if !IsBinaryBatch(buf) {
		t.Fatal("encoded batch not recognized by magic")
	}
	got, err := decodeAll(t, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prims) {
		t.Fatalf("decoded %d records, want %d", len(got), len(prims))
	}
	for i := range prims {
		if got[i] != prims[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], prims[i])
		}
	}
}

func TestBinaryBatchEmpty(t *testing.T) {
	buf := mustEncode(t, nil)
	got, err := decodeAll(t, buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %d records", err, len(got))
	}
}

// Any single-bit corruption or truncation of a binary batch must fail the
// whole frame: zero emitted occurrences, never a decoded prefix.
func TestBinaryBatchCorruptionFailsWhole(t *testing.T) {
	prims := []led.Primitive{
		{Event: "e1", Table: "t1", Op: "insert", VNo: 7},
		{Event: "e2", Table: "t2", Op: "delete", VNo: 8},
	}
	buf := mustEncode(t, prims)
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		emitted := 0
		var in interner
		if _, err := decodeBinaryBatch(bad, &in, func(led.Primitive) { emitted++ }); err == nil {
			// Flipping a bit inside a length-prefixed name can produce a
			// different, still-consistent frame only if the CRC matched,
			// which a single flip cannot.
			t.Errorf("flip at byte %d accepted", i)
		}
		if emitted != 0 {
			t.Errorf("flip at byte %d emitted %d occurrences before failing", i, emitted)
		}
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := decodeAll(t, buf[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := decodeAll(t, nil); err == nil {
		t.Error("empty datagram accepted as binary batch")
	}
}

func TestBinaryBatchEncodeRejects(t *testing.T) {
	if _, err := EncodeBinaryBatch([]led.Primitive{{Event: "e", Table: "t", Op: "insert", VNo: -1}}); err == nil {
		t.Error("negative vNo encoded")
	}
	big := strings.Repeat("x", maxNotificationLen+1)
	if _, err := EncodeBinaryBatch([]led.Primitive{{Event: big, Table: "t", Op: "insert", VNo: 1}}); err == nil {
		t.Error("oversized field encoded")
	}
	many := make([]led.Primitive, maxBinaryBatch)
	for i := range many {
		many[i] = led.Primitive{Event: "e", Table: "t", Op: "insert", VNo: i}
	}
	if _, err := EncodeBinaryBatch(many); err == nil {
		t.Error("over-count batch encoded")
	}
}

// A structurally invalid frame behind a valid CRC (a buggy encoder, not
// line noise) must still be rejected: empty fields, trailing garbage.
func TestBinaryBatchStructuralRejects(t *testing.T) {
	reframe := func(mutate func([]byte) []byte) []byte {
		buf := mustEncode(t, []led.Primitive{{Event: "e", Table: "t", Op: "insert", VNo: 1}})
		body := mutate(append([]byte(nil), buf[:len(buf)-4]...))
		return appendCRC(body)
	}
	// Trailing garbage after the declared records.
	if _, err := decodeAll(t, reframe(func(b []byte) []byte { return append(b, 0xEE) })); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Declared count exceeds the records present.
	if _, err := decodeAll(t, reframe(func(b []byte) []byte { b[4]++; return b })); err == nil {
		t.Error("over-declared count accepted")
	}
	// Empty event field.
	empty := appendCRC([]byte{'E', 'C', 'B', '1', 1, 0, 0, 1, 't', 6, 'i', 'n', 's', 'e', 'r', 't', 1})
	if _, err := decodeAll(t, empty); err == nil {
		t.Error("empty event field accepted")
	}
}

// TestDeliverBinaryBatch drives the full delivery surface with an ECB1
// datagram: both events detect, counters advance like a text batch of the
// same size, and a corrupted frame counts one dropped datagram.
func TestDeliverBinaryBatch(t *testing.T) {
	r := newChaosRig(t, nil, nil)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t1 on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	ev, tbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"
	buf := mustEncode(t, []led.Primitive{
		{Event: ev, Table: tbl, Op: "insert", VNo: 1},
		{Event: ev, Table: tbl, Op: "insert", VNo: 2},
	})
	r.agent.DeliverBatchBytes(buf)
	r.agent.WaitActions()
	for i := 1; i <= 2; i++ {
		res := waitAction(t, r.agent)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := r.agent.Stats()
	if st.NotificationsReceived != 2 || st.NotificationsDropped != 0 {
		t.Errorf("received %d dropped %d, want 2/0", st.NotificationsReceived, st.NotificationsDropped)
	}

	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xFF
	r.agent.DeliverBatchBytes(bad)
	st = r.agent.Stats()
	if st.NotificationsReceived != 3 || st.NotificationsDropped != 1 {
		t.Errorf("after corrupt frame: received %d dropped %d, want 3/1", st.NotificationsReceived, st.NotificationsDropped)
	}
}

// ---- allocation guards (ISSUE 7 satellite: zero-allocation decode) ----

// TestAllocsParseNotificationBytes: parsing one text notification with a
// warmed interner must not allocate.
func TestAllocsParseNotificationBytes(t *testing.T) {
	var in interner
	line := []byte("ECA1|db.u.ev|db.u.tbl|insert|42")
	if _, _, _, _, err := parseNotificationBytes(line, &in); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, _, _, err := parseNotificationBytes(line, &in); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("parseNotificationBytes allocates %.1f objects/op, want 0", avg)
	}
}

// wireBatch is n distinct-vNo notifications on the canonical wire names,
// the batch the allocation guards below decode and encode.
func wireBatch(n int) []led.Primitive {
	prims := make([]led.Primitive, n)
	for i := range prims {
		prims[i] = led.Primitive{Event: "db.u.ev", Table: "db.u.tbl", Op: "insert", VNo: i + 1}
	}
	return prims
}

// TestAllocsDecodeTextClean: a clean text batch must decode with zero
// allocations once the name universe is interned, through the internal
// walk and through the exported DecodeBatchBytes, for one line and for a
// 16-line batch of distinct vNos.
func TestAllocsDecodeTextClean(t *testing.T) {
	var batch16 []byte
	for _, p := range wireBatch(16) {
		batch16 = fmt.Appendf(batch16, "ECA1|%s|%s|%s|%d\n", p.Event, p.Table, p.Op, p.VNo)
	}
	for _, tc := range []struct {
		name     string
		decode   func([]byte, func(led.Primitive), func(error)) (int, int)
		datagram []byte
		want     int
	}{
		{"decodeText/repeated8", decodeText, bytes.Repeat([]byte("ECA1|db.u.ev|db.u.tbl|insert|42\n"), 8), 8},
		{"DecodeBatchBytes/line1", DecodeBatchBytes, []byte("ECA1|db.u.ev|db.u.tbl|insert|42"), 1},
		{"DecodeBatchBytes/distinct16", DecodeBatchBytes, batch16, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := 0
			emit := func(p led.Primitive) { sink += p.VNo }
			onErr := func(err error) { t.Errorf("clean batch produced error: %v", err) }
			tc.decode(tc.datagram, emit, onErr) // warm wireNames
			if avg := testing.AllocsPerRun(200, func() {
				if good, bad := tc.decode(tc.datagram, emit, onErr); good != tc.want || bad != 0 {
					t.Fatalf("decoded %d/%d, want %d/0", good, bad, tc.want)
				}
			}); avg != 0 {
				t.Fatalf("allocates %.1f objects/op on a clean batch, want 0", avg)
			}
		})
	}
}

// TestAllocsBinaryCodec: encoding into a sized buffer and decoding with a
// warmed interner must both be allocation-free, through the internal
// decoder and through the exported DecodeBinaryBatch.
func TestAllocsBinaryCodec(t *testing.T) {
	var in interner
	for _, tc := range []struct {
		name   string
		decode func([]byte, func(led.Primitive)) (int, error)
		prims  []led.Primitive
	}{
		{"decodeBinaryBatch/mixed2",
			func(buf []byte, emit func(led.Primitive)) (int, error) { return decodeBinaryBatch(buf, &in, emit) },
			[]led.Primitive{
				{Event: "db.u.ev", Table: "db.u.tbl", Op: "insert", VNo: 1},
				{Event: "db.u.ev2", Table: "db.u.tbl", Op: "delete", VNo: 2},
			}},
		{"DecodeBinaryBatch/distinct16", DecodeBinaryBatch, wireBatch(16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := mustEncode(t, tc.prims)
			dst := make([]byte, 0, 2*len(buf))
			if avg := testing.AllocsPerRun(200, func() {
				out, err := AppendBinaryBatch(dst[:0], tc.prims)
				if err != nil || len(out) != len(buf) {
					t.Fatalf("encode: %v (%d bytes)", err, len(out))
				}
			}); avg != 0 {
				t.Fatalf("AppendBinaryBatch allocates %.1f objects/op, want 0", avg)
			}

			sink := 0
			emit := func(p led.Primitive) { sink += p.VNo }
			if _, err := tc.decode(buf, emit); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(200, func() {
				if n, err := tc.decode(buf, emit); err != nil || n != len(tc.prims) {
					t.Fatalf("decode: %v (%d notifications)", err, n)
				}
			}); avg != 0 {
				t.Fatalf("decode allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

// TestInternerBounded: beyond the cap the interner keeps working (plain
// copies) without admitting new entries.
func TestInternerBounded(t *testing.T) {
	var in interner
	for i := 0; i < maxInternEntries+100; i++ {
		name := fmt.Sprintf("name-%d", i)
		if got := in.intern([]byte(name)); got != name {
			t.Fatalf("intern(%q) = %q", name, got)
		}
	}
	if in.size() != maxInternEntries {
		t.Fatalf("interner holds %d entries, cap is %d", in.size(), maxInternEntries)
	}
	// Previously admitted names still resolve to their canonical copy.
	a := in.intern([]byte("name-0"))
	b := in.intern([]byte("name-0"))
	if a != b {
		t.Error("interned name lost its canonical copy")
	}
}

// FuzzBinaryDecode: arbitrary bytes must never panic the binary decoder,
// and a successful decode's record count must match what was emitted.
func FuzzBinaryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ECB1"))
	seed := func(prims []led.Primitive) {
		if buf, err := EncodeBinaryBatch(prims); err == nil {
			f.Add(buf)
		}
	}
	seed(nil)
	seed([]led.Primitive{{Event: "e", Table: "t", Op: "insert", VNo: 1}})
	seed([]led.Primitive{{Event: "e", Table: "t", Op: "insert", VNo: 1}, {Event: "e2", Table: "t2", Op: "delete", VNo: 9}})
	f.Fuzz(func(t *testing.T, data []byte) {
		var in interner
		emitted := 0
		n, err := decodeBinaryBatch(data, &in, func(p led.Primitive) {
			if p.Event == "" || p.Table == "" || p.Op == "" || p.VNo < 0 {
				t.Errorf("decoder emitted invalid primitive %+v", p)
			}
			emitted++
		})
		if err != nil && emitted != 0 {
			t.Errorf("failed decode emitted %d occurrences", emitted)
		}
		if err == nil && n != emitted {
			t.Errorf("decode reported %d records, emitted %d", n, emitted)
		}
	})
}

// FuzzBinaryCodec pins text↔binary equivalence: any notification the text
// parser accepts must survive a binary round trip unchanged, and any
// primitive the binary codec round-trips with text-safe fields must decode
// identically from its text rendering.
func FuzzBinaryCodec(f *testing.F) {
	f.Add("db.u.ev", "db.u.tbl", "insert", 42)
	f.Add("e", "t", "delete", 0)
	f.Add("e|pipe", "t", "update", 1)
	f.Add("", "t", "insert", 1)
	f.Add("e", "t", "insert", -5)
	f.Add(strings.Repeat("x", 5000), "t", "insert", 1)
	f.Fuzz(func(t *testing.T, event, table, op string, vno int) {
		line := fmt.Sprintf("ECA1|%s|%s|%s|%d", event, table, op, vno)
		tev, ttbl, top, tvno, terr := parseNotification(line)

		buf, berr := EncodeBinaryBatch([]led.Primitive{{Event: event, Table: table, Op: op, VNo: vno}})
		if berr != nil {
			if vno >= 0 && len(event) <= maxNotificationLen && len(table) <= maxNotificationLen && len(op) <= maxNotificationLen {
				t.Fatalf("binary encode rejected encodable primitive: %v", berr)
			}
			return
		}
		got, derr := decodeAll(t, buf)
		if derr != nil {
			// The binary structural pass rejects empty fields, matching the
			// text parser.
			if event != "" && table != "" && op != "" {
				t.Fatalf("binary round trip failed: %v", derr)
			}
			return
		}
		if len(got) != 1 {
			t.Fatalf("binary round trip returned %d records", len(got))
		}
		if got[0].Event != event || got[0].Table != table || got[0].Op != op || got[0].VNo != vno {
			t.Fatalf("binary round trip changed the primitive: %+v", got[0])
		}
		// When the text parser accepts the same rendering, both forms must
		// agree exactly.
		if terr == nil {
			if tev != got[0].Event || ttbl != got[0].Table || top != got[0].Op || tvno != got[0].VNo {
				t.Fatalf("text %q decoded (%q,%q,%q,%d); binary decoded (%q,%q,%q,%d)",
					line, tev, ttbl, top, tvno, got[0].Event, got[0].Table, got[0].Op, got[0].VNo)
			}
		}
	})
}
