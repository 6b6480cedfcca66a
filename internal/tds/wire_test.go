package tds

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// updateWire rewrites wireGoldenPath from the current encoder instead of
// comparing against it: go test ./internal/tds -run TestWireGolden -update
var updateWire = flag.Bool("update", false, "rewrite "+wireGoldenPath)

const wireGoldenPath = "testdata/wire.golden"

// wireCase is one message whose exact bytes are pinned. A response case
// is a whole WriteResults stream, DONEFINAL included.
type wireCase struct {
	name     string
	response bool
	write    func(w io.Writer) error
}

func packetCase(name string, p Packet) wireCase {
	return wireCase{name: name, write: func(w io.Writer) error { return WritePacket(w, p) }}
}

func responseCase(name string, results []*sqltypes.ResultSet, execErr error) wireCase {
	return wireCase{name: name, response: true, write: func(w io.Writer) error {
		return WriteResults(w, results, execErr)
	}}
}

// wireCases covers both requests, the login ack, and every shape of
// response: a rowset carrying every value kind and a NULL, PRINT output,
// a rows-affected DONE, an error after partial results, and an empty
// response.
func wireCases() []wireCase {
	char, err := sqltypes.NewString("IBM").Convert(sqltypes.Char(4))
	if err != nil {
		panic(err)
	}
	rowset := &sqltypes.ResultSet{
		Schema: sqltypes.NewSchema(
			sqltypes.Column{Name: "i", Type: sqltypes.Int},
			sqltypes.Column{Name: "b", Type: sqltypes.Bit, Nullable: true},
			sqltypes.Column{Name: "f", Type: sqltypes.Float, Nullable: true},
			sqltypes.Column{Name: "c", Type: sqltypes.Char(4)},
			sqltypes.Column{Name: "v", Type: sqltypes.VarChar(30), Nullable: true},
			sqltypes.Column{Name: "t", Type: sqltypes.Text, Nullable: true},
			sqltypes.Column{Name: "d", Type: sqltypes.DateTime, Nullable: true},
			sqltypes.Column{Name: "n", Type: sqltypes.Int, Nullable: true},
		),
		Rows: []sqltypes.Row{
			{sqltypes.NewInt(-7), sqltypes.NewBit(true), sqltypes.NewFloat(101.25), char,
				sqltypes.NewString("sentineldb"), sqltypes.NewText("stock watch"),
				sqltypes.NewDateTime(time.Date(1999, 3, 23, 9, 30, 0, 125e6, time.UTC)), sqltypes.Null},
			{sqltypes.NewInt(1 << 40), sqltypes.NewBit(false), sqltypes.NewFloat(-0.5), char,
				sqltypes.NewString(""), sqltypes.NewText(""),
				sqltypes.NewDateTime(time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)), sqltypes.NewInt(0)},
		},
		RowsAffected: 2,
	}
	return []wireCase{
		packetCase("login", MarshalLogin(Login{User: "sharma", Database: "sentineldb"})),
		packetCase("loginack_ok", MarshalLoginAck(LoginAck{OK: true, Message: "login ok"})),
		packetCase("loginack_rejected", MarshalLoginAck(LoginAck{Message: "no such database"})),
		packetCase("language", MarshalLanguage("insert stock values ('IBM', 101)\ngo\nselect * from stock")),
		responseCase("rowset", []*sqltypes.ResultSet{rowset}, nil),
		responseCase("print", []*sqltypes.ResultSet{
			{Messages: []string{"rule fired", "second line"}},
			{Messages: []string{"another statement"}},
		}, nil),
		responseCase("rows_affected", []*sqltypes.ResultSet{{RowsAffected: 3}}, nil),
		responseCase("error_after_partial", []*sqltypes.ResultSet{
			rowset,
			{Messages: []string{"before"}, RowsAffected: 1},
			nil,
		}, errors.New("table not found: ghost")),
		responseCase("empty", nil, nil),
	}
}

// wireBytes encodes one case into a buffer.
func wireBytes(t testing.TB, c wireCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.write(&buf); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return buf.Bytes()
}

// readWireGolden parses wireGoldenPath: one "name hex" line per case
// after the comment header.
func readWireGolden(t testing.TB) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string][]byte)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", wireGoldenPath, line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %s: %v", wireGoldenPath, name, err)
		}
		golden[name] = b
	}
	return golden
}

// TestWireGolden pins the exact bytes every message puts on the wire, so a
// change to how messages are written cannot change what is written.
func TestWireGolden(t *testing.T) {
	cases := wireCases()
	if *updateWire {
		var b strings.Builder
		b.WriteString("# Exact TDS bytes per message, hex; regenerate: go test ./internal/tds -run TestWireGolden -update\n")
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, hex.EncodeToString(wireBytes(t, c)))
		}
		if err := os.MkdirAll(filepath.Dir(wireGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readWireGolden(t)
	if len(golden) != len(cases) {
		t.Errorf("%s has %d cases, the suite has %d", wireGoldenPath, len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("case %s missing from %s", c.name, wireGoldenPath)
			continue
		}
		if got := wireBytes(t, c); !bytes.Equal(got, want) {
			t.Errorf("%s: wire bytes diverge from %s\ngolden: %x\ngot:    %x", c.name, wireGoldenPath, want, got)
		}
	}
}

// countingWriter counts the Write calls a message costs.
type countingWriter struct {
	bytes.Buffer
	writes  int
	largest int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

// TestWritesPerMessage holds every packet and every golden response to one
// Write, and a response larger than WriteChunk to about one Write per
// WriteChunk bytes.
func TestWritesPerMessage(t *testing.T) {
	for _, c := range wireCases() {
		var w countingWriter
		if err := c.write(&w); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%s: %d writes for %d bytes, want 1", c.name, w.writes, w.Len())
		}
	}

	big := &sqltypes.ResultSet{Schema: sqltypes.NewSchema(
		sqltypes.Column{Name: "n", Type: sqltypes.Int},
		sqltypes.Column{Name: "body", Type: sqltypes.Text},
	)}
	body := strings.Repeat("x", 200)
	for i := 0; i < 2000; i++ {
		big.Rows = append(big.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewText(body)})
	}
	var w countingWriter
	if err := WriteResults(&w, []*sqltypes.ResultSet{big}, nil); err != nil {
		t.Fatal(err)
	}
	limit := (w.Len()+WriteChunk-1)/WriteChunk + 1
	if w.Len() <= WriteChunk || w.writes > limit {
		t.Errorf("%d-byte response: %d writes, want 2..%d", w.Len(), w.writes, limit)
	}
	if row := len(MarshalRow(big.Rows[0]).Payload) + 5; w.largest >= WriteChunk+row {
		t.Errorf("a %d-byte write holds more than %d bytes plus one row", w.largest, WriteChunk)
	}
	got, err := ReadResponse(bufio.NewReader(&w))
	if err != nil || len(got) != 1 || len(got[0].Rows) != len(big.Rows) {
		t.Fatalf("chunked response does not decode: %v", err)
	}
}

// describeResponse renders a decoded response, error included, so two
// decodes can be compared value by value (NaN included).
func describeResponse(results []*sqltypes.ResultSet, err error) string {
	var b strings.Builder
	for _, rs := range results {
		if rs.Schema != nil {
			fmt.Fprintf(&b, "schema %+v\n", *rs.Schema)
		}
		fmt.Fprintf(&b, "rows %+v\nmessages %q\naffected %d\n", rs.Rows, rs.Messages, rs.RowsAffected)
	}
	fmt.Fprintf(&b, "err %v", err)
	return b.String()
}

// TestReadResponseChunkedReaders decodes every golden response identically
// however the transport splits it: one byte per read, half of each
// request, and through the buffered reader the client uses.
func TestReadResponseChunkedReaders(t *testing.T) {
	for _, c := range wireCases() {
		if !c.response {
			continue
		}
		stream := wireBytes(t, c)
		want := describeResponse(ReadResponse(bytes.NewReader(stream)))
		readers := map[string]func(io.Reader) io.Reader{
			"onebyte":         iotest.OneByteReader,
			"half":            iotest.HalfReader,
			"bufio/onebyte":   func(r io.Reader) io.Reader { return bufio.NewReader(iotest.OneByteReader(r)) },
			"bufio/half":      func(r io.Reader) io.Reader { return bufio.NewReader(iotest.HalfReader(r)) },
			"bufio16/onebyte": func(r io.Reader) io.Reader { return bufio.NewReaderSize(iotest.OneByteReader(r), 16) },
			"bufio16/half":    func(r io.Reader) io.Reader { return bufio.NewReaderSize(iotest.HalfReader(r), 16) },
		}
		for name, wrap := range readers {
			if got := describeResponse(ReadResponse(wrap(bytes.NewReader(stream)))); got != want {
				t.Errorf("%s over %s:\n%s\nwant:\n%s", c.name, name, got, want)
			}
		}
	}
}

// TestReadResponseTruncated cuts every golden stream at every byte offset:
// each prefix must fail cleanly, not panic, hang or pass for a response.
func TestReadResponseTruncated(t *testing.T) {
	for _, c := range wireCases() {
		stream := wireBytes(t, c)
		for n := 0; n < len(stream); n++ {
			r := bufio.NewReader(bytes.NewReader(stream[:n]))
			var err error
			if c.response {
				_, err = ReadResponse(r)
			} else {
				_, err = ReadPacket(r)
			}
			if err == nil {
				t.Errorf("%s cut at %d of %d bytes: no error", c.name, n, len(stream))
			}
		}
	}
}

// FuzzReadResponse feeds arbitrary streams, seeded with the golden
// messages, to ReadResponse: it must not panic, and a buffered one-byte
// reader must decode exactly what a whole-stream reader does. A Reader
// reused across responses must too, and what it returned must not change
// when it decodes the next: each reused Reader decodes the stream, then
// the stream with every byte inverted (so its buffers' bytes change),
// then the stream again. One Reader decodes most tokens where they lie in
// its read buffer, the other most tokens from its scratch.
func FuzzReadResponse(f *testing.F) {
	for _, c := range wireCases() {
		f.Add(wireBytes(f, c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := describeResponse(ReadResponse(bytes.NewReader(data)))
		got := describeResponse(ReadResponse(bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data)))))
		if got != want {
			t.Fatalf("buffered one-byte decode differs:\n%s\nwant:\n%s", got, want)
		}
		inverted := make([]byte, len(data))
		for i, b := range data {
			inverted[i] = ^b
		}
		for _, size := range []int{4096, 16} {
			br := bufio.NewReaderSize(nil, size)
			rd := NewReader(br)
			decode := func(stream []byte) ([]*sqltypes.ResultSet, error) {
				br.Reset(bytes.NewReader(stream))
				return rd.ReadResponse()
			}
			first, err := decode(data)
			_, _ = decode(inverted)
			if got := describeResponse(first, err); got != want {
				t.Fatalf("reused %d-byte Reader: first decode changed by the next:\n%s\nwant:\n%s", size, got, want)
			}
			if got := describeResponse(decode(data)); got != want {
				t.Fatalf("reused %d-byte Reader: third decode differs:\n%s\nwant:\n%s", size, got, want)
			}
		}
	})
}
