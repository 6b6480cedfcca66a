package tds

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

func TestPacketFraming(t *testing.T) {
	var buf bytes.Buffer
	in := Packet{Type: PktLanguage, Payload: []byte("select 1")}
	if err := WritePacket(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadPacket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip: %+v", out)
	}
}

func TestPacketTruncation(t *testing.T) {
	var buf bytes.Buffer
	_ = WritePacket(&buf, MarshalLanguage("select 1"))
	data := buf.Bytes()
	if _, err := ReadPacket(bytes.NewReader(data[:3])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := ReadPacket(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Error("truncated payload accepted")
	}
	// Oversized declared length rejected without allocating.
	bad := []byte{byte(PktLanguage), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadPacket(bytes.NewReader(bad)); err == nil {
		t.Error("oversized packet accepted")
	}
}

func TestLoginRoundTrip(t *testing.T) {
	p := MarshalLogin(Login{User: "sharma", Database: "sentineldb"})
	l, err := UnmarshalLogin(p)
	if err != nil || l.User != "sharma" || l.Database != "sentineldb" {
		t.Errorf("login: %+v %v", l, err)
	}
	if _, err := UnmarshalLogin(MarshalLanguage("x")); err == nil {
		t.Error("wrong packet type accepted")
	}
}

func TestLoginAckRoundTrip(t *testing.T) {
	for _, ok := range []bool{true, false} {
		a, err := UnmarshalLoginAck(MarshalLoginAck(LoginAck{OK: ok, Message: "m"}))
		if err != nil || a.OK != ok || a.Message != "m" {
			t.Errorf("ack: %+v %v", a, err)
		}
	}
}

func TestLanguageRoundTrip(t *testing.T) {
	sql := "create trigger t on s for insert as\nprint 'x'"
	got, err := UnmarshalLanguage(MarshalLanguage(sql))
	if err != nil || got != sql {
		t.Errorf("language: %q %v", got, err)
	}
}

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.Int, Nullable: true},
		sqltypes.Column{Name: "b", Type: sqltypes.VarChar(30)},
		sqltypes.Column{Name: "c", Type: sqltypes.DateTime, Nullable: true},
		sqltypes.Column{Name: "d", Type: sqltypes.Float, Nullable: true},
		sqltypes.Column{Name: "e", Type: sqltypes.Bit, Nullable: true},
		sqltypes.Column{Name: "f", Type: sqltypes.Text, Nullable: true},
	)
}

func TestRowFmtRoundTrip(t *testing.T) {
	s := testSchema()
	got, err := UnmarshalRowFmt(MarshalRowFmt(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != s.String() {
		t.Errorf("schema: %s vs %s", got, s)
	}
}

func TestRowRoundTrip(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Millisecond)
	row := sqltypes.Row{
		sqltypes.NewInt(-7),
		sqltypes.NewString("hi"),
		sqltypes.NewDateTime(now),
		sqltypes.NewFloat(2.5),
		sqltypes.NewBit(true),
		sqltypes.NewText("body"),
	}
	got, err := UnmarshalRow(MarshalRow(row))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(row) {
		t.Errorf("row: %v vs %v", got, row)
	}
	nulls := sqltypes.Row{sqltypes.Null, sqltypes.Null}
	got, err = UnmarshalRow(MarshalRow(nulls))
	if err != nil || !got.Equal(nulls) {
		t.Errorf("null row: %v %v", got, err)
	}
}

func TestWriteReadResults(t *testing.T) {
	var buf bytes.Buffer
	results := []*sqltypes.ResultSet{
		{
			Schema: testSchema(),
			Rows: []sqltypes.Row{
				{sqltypes.NewInt(1), sqltypes.NewString("x"), sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null},
			},
			Messages:     []string{"one"},
			RowsAffected: 1,
		},
		{Messages: []string{"print output"}},
		nil, // skipped
		{RowsAffected: 3},
	}
	if err := WriteResults(&buf, results, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d result sets", len(got))
	}
	if got[0].Schema == nil || len(got[0].Rows) != 1 || got[0].Messages[0] != "one" || got[0].RowsAffected != 1 {
		t.Errorf("rs0: %+v", got[0])
	}
	if got[1].Messages[0] != "print output" {
		t.Errorf("rs1: %+v", got[1])
	}
	if got[2].RowsAffected != 3 {
		t.Errorf("rs2: %+v", got[2])
	}
}

func TestWriteResultsWithError(t *testing.T) {
	var buf bytes.Buffer
	results := []*sqltypes.ResultSet{{RowsAffected: 1}}
	if err := WriteResults(&buf, results, errors.New("table not found")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(&buf)
	var se *ServerError
	if !errors.As(err, &se) || se.Msg != "table not found" {
		t.Fatalf("error: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("partial results lost: %d", len(got))
	}
}

func TestReadResponseTransportError(t *testing.T) {
	var buf bytes.Buffer
	_ = WritePacket(&buf, MarshalInfo("hello"))
	// No DONEFINAL: reader hits EOF.
	if _, err := ReadResponse(&buf); err == nil {
		t.Error("missing DONEFINAL accepted")
	}
	// Unexpected token.
	buf.Reset()
	_ = WritePacket(&buf, MarshalLogin(Login{}))
	if _, err := ReadResponse(&buf); err == nil {
		t.Error("unexpected token accepted")
	}
}

func TestPacketTypeString(t *testing.T) {
	for _, pt := range []PacketType{PktLogin, PktLoginAck, PktLanguage, PktRowFmt, PktRow, PktInfo, PktError, PktDone, PktDoneFinal, PacketType(0x55)} {
		if pt.String() == "" {
			t.Errorf("empty String for %d", pt)
		}
	}
}

func TestRowPropertyRoundTrip(t *testing.T) {
	f := func(n int64, s string, fl float64) bool {
		row := sqltypes.Row{sqltypes.NewInt(n), sqltypes.NewText(s), sqltypes.NewFloat(fl)}
		got, err := UnmarshalRow(MarshalRow(row))
		if err != nil {
			return false
		}
		// NaN != NaN under Compare; compare the wire representation.
		return fmt.Sprintf("%v", got) == fmt.Sprintf("%v", row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	garbage := Packet{Type: PktRow, Payload: []byte{0x05, 0x09}}
	if _, err := UnmarshalRow(garbage); err == nil {
		t.Error("garbage row accepted")
	}
	garbage = Packet{Type: PktRowFmt, Payload: []byte{0xFF}}
	if _, err := UnmarshalRowFmt(garbage); err == nil {
		t.Error("garbage rowfmt accepted")
	}
	if _, err := UnmarshalDone(Packet{Type: PktDone, Payload: nil}); err == nil {
		t.Error("empty done accepted")
	}
	// A string length past the int range must not wrap the bounds check.
	huge := binary.AppendUvarint(nil, 1<<63)
	if _, err := UnmarshalText(Packet{Type: PktInfo, Payload: huge}); err == nil {
		t.Error("string length 1<<63 accepted")
	}
}

// TestLengthPrefixIsNotAnAllocation: a header that claims 60 MiB, then
// ends, costs the bytes that arrived, not the bytes it claimed, on every
// read path.
func TestLengthPrefixIsNotAnAllocation(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32([]byte{byte(PktLanguage)}, 60<<20)
	reads := []struct {
		name string
		read func() error
	}{
		{"ReadPacket", func() error { _, err := ReadPacket(bytes.NewReader(hdr)); return err }},
		{"Reader", func() error { _, err := NewReader(bytes.NewReader(hdr)).Next(); return err }},
		{"Reader/bufio", func() error { _, err := NewReader(bufio.NewReader(bytes.NewReader(hdr))).Next(); return err }},
		{"ReadResponse", func() error { _, err := ReadResponse(bufio.NewReader(bytes.NewReader(hdr))); return err }},
	}
	for _, r := range reads {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := r.read()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: %v, want io.ErrUnexpectedEOF", r.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: a 5-byte stream cost %d bytes of allocation", r.name, d)
		}
	}
}
