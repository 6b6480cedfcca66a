package sqltypes_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
	"github.com/activedb/ecaagent/internal/tds"
)

// The payloads a packed representation could get wrong: the int64
// extremes, NaN, -0, the infinities, datetimes before 1970 and from other
// zones.
var (
	edgeInts    = []int64{0, -1, math.MinInt64, math.MaxInt64}
	edgeFloats  = []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	edgeStrings = []string{"", "héllo 'world'", "line\nnext"}
	edgeTimes   = []time.Time{
		time.Date(1969, 7, 20, 20, 17, 40, 123_456_789, time.UTC),
		time.Date(1900, 1, 1, 0, 0, 0, 999_999_999, time.UTC),
		time.Date(2024, 3, 10, 2, 30, 0, 5e8, time.FixedZone("minus5", -5*3600)),
		time.Date(2024, 11, 3, 1, 30, 0, 1e6, time.Local),
	}
)

// edgeValues is NULL plus one value of every kind for each edge payload.
func edgeValues() []sqltypes.Value {
	vals := []sqltypes.Value{sqltypes.Null, sqltypes.NewBit(true), sqltypes.NewBit(false)}
	for _, n := range edgeInts {
		vals = append(vals, sqltypes.NewInt(n))
	}
	for _, f := range edgeFloats {
		vals = append(vals, sqltypes.NewFloat(f))
	}
	for _, s := range edgeStrings {
		vals = append(vals, sqltypes.NewString(s), sqltypes.NewText(s))
	}
	for _, at := range edgeTimes {
		vals = append(vals, sqltypes.NewDateTime(at))
	}
	return vals
}

// identical reports whether a and b have the same kind and the same
// payload bit for bit (NaN included, -0 distinct from +0).
func identical(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case sqltypes.KindNull:
		return true
	case sqltypes.KindInt, sqltypes.KindBit:
		return a.Int() == b.Int()
	case sqltypes.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqltypes.KindDateTime:
		return a.Time().UnixMilli() == b.Time().UnixMilli() && a.Time().Location() == b.Time().Location()
	default:
		return a.Str() == b.Str()
	}
}

func TestValueAccessorRoundTrip(t *testing.T) {
	for _, n := range edgeInts {
		if got := sqltypes.NewInt(n).Int(); got != n {
			t.Errorf("NewInt(%d).Int() = %d", n, got)
		}
	}
	if sqltypes.NewBit(true).Int() != 1 || sqltypes.NewBit(false).Int() != 0 {
		t.Error("BIT does not read back as 1 and 0")
	}
	for _, f := range edgeFloats {
		if got := sqltypes.NewFloat(f).Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).Float() = %v (bits %x, want %x)", f, got, math.Float64bits(got), math.Float64bits(f))
		}
	}
	for _, s := range edgeStrings {
		if got := sqltypes.NewString(s).Str(); got != s {
			t.Errorf("NewString(%q).Str() = %q", s, got)
		}
		if got := sqltypes.NewText(s).Str(); got != s {
			t.Errorf("NewText(%q).Str() = %q", s, got)
		}
	}
	for _, at := range edgeTimes {
		got := sqltypes.NewDateTime(at).Time()
		if !got.Equal(at.Truncate(time.Millisecond)) || got.Location() != time.UTC {
			t.Errorf("NewDateTime(%v).Time() = %v, want %v in UTC", at, got, at.Truncate(time.Millisecond))
		}
	}
}

func TestValueTDSRoundTrip(t *testing.T) {
	row := sqltypes.Row(edgeValues())
	got, err := tds.UnmarshalRow(tds.MarshalRow(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("%d cells back, want %d", len(got), len(row))
	}
	for i := range row {
		if !identical(got[i], row[i]) {
			t.Errorf("cell %d: %s %q came back as %s %q", i, row[i].Kind(), row[i].AsString(), got[i].Kind(), got[i].AsString())
		}
	}
}

func TestValueStorageRoundTrip(t *testing.T) {
	vals := edgeValues()
	cols := make([]sqltypes.Column, len(vals))
	for i, v := range vals {
		typ := sqltypes.Type{Kind: v.Kind()}
		if v.IsNull() {
			typ = sqltypes.Int
		}
		cols[i] = sqltypes.Column{Name: string(rune('a' + i)), Type: typ, Nullable: true}
	}
	tbl := storage.NewTable(sqltypes.NewSchema(cols...))
	if err := tbl.Insert(sqltypes.Row(vals)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := storage.NewWriter(&buf)
	w.WriteTable(tbl)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := storage.NewReader(buf.Bytes())
	r.Expect(storage.Magic)
	back := r.Table()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	rows := back.Rows()
	if len(rows) != 1 {
		t.Fatalf("%d rows back, want 1", len(rows))
	}
	for i := range vals {
		if !identical(rows[0][i], vals[i]) {
			t.Errorf("cell %d: %s %q came back as %s %q", i, vals[i].Kind(), vals[i].AsString(), rows[0][i].Kind(), rows[0][i].AsString())
		}
	}
}

// TestDateTimeCodecBytes: a datetime encodes as its Unix milliseconds on
// the wire and in a snapshot, whatever zone it was built in, so the bytes
// are those of the same instant in UTC.
func TestDateTimeCodecBytes(t *testing.T) {
	at := time.Date(1999, 3, 23, 9, 30, 0, 125e6, time.UTC)
	want := binary.AppendVarint([]byte{1, byte(sqltypes.KindDateTime)}, at.UnixMilli())
	snapshot := func(v sqltypes.Value) []byte {
		tbl := storage.NewTable(sqltypes.NewSchema(sqltypes.Column{Name: "d", Type: sqltypes.DateTime, Nullable: true}))
		if err := tbl.Insert(sqltypes.Row{v}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := storage.NewWriter(&buf)
		w.WriteTable(tbl)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	utc := snapshot(sqltypes.NewDateTime(at))
	for _, loc := range []*time.Location{time.UTC, time.FixedZone("plus9", 9*3600), time.FixedZone("minus3:30", -3*3600-1800), time.Local} {
		v := sqltypes.NewDateTime(at.In(loc))
		if got := tds.MarshalRow(sqltypes.Row{v}).Payload; !bytes.Equal(got, want) {
			t.Errorf("%s: wire row % x, want % x", loc, got, want)
		}
		if got := snapshot(v); !bytes.Equal(got, utc) {
			t.Errorf("%s: snapshot % x, want % x", loc, got, utc)
		}
		if !bytes.HasSuffix(utc, binary.AppendVarint([]byte{byte(sqltypes.KindDateTime)}, at.UnixMilli())) {
			t.Errorf("snapshot % x does not end in the datetime's Unix milliseconds", utc)
		}
	}
}
