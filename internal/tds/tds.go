// Package tds implements the wire protocol spoken between clients, the ECA
// agent's gateway, and the SQL server — a simplified analog of the Tabular
// Data Stream used by the original Open Client / Open Server libraries.
//
// The protocol is token-oriented: a request (LOGIN or LANGUAGE) is answered
// by a stream of result tokens (ROWFMT, ROW, INFO, ERROR, DONE) terminated
// by DONEFINAL. Because both sides of the ECA agent speak the same
// protocol, the agent can interpose transparently (Figure 1 of the paper).
package tds

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// PacketType identifies a protocol token.
type PacketType byte

// Protocol tokens.
const (
	PktLogin     PacketType = 0x01 // client → server: user, database
	PktLoginAck  PacketType = 0x02 // server → client: ok, message
	PktLanguage  PacketType = 0x03 // client → server: SQL batch text
	PktRowFmt    PacketType = 0x81 // result schema
	PktRow       PacketType = 0xD1 // one result row
	PktInfo      PacketType = 0xAB // informational message (PRINT output)
	PktError     PacketType = 0xAA // statement error
	PktDone      PacketType = 0xFD // end of one statement's results
	PktDoneFinal PacketType = 0xFE // end of the whole response
)

// String names the token for diagnostics.
func (t PacketType) String() string {
	switch t {
	case PktLogin:
		return "LOGIN"
	case PktLoginAck:
		return "LOGINACK"
	case PktLanguage:
		return "LANGUAGE"
	case PktRowFmt:
		return "ROWFMT"
	case PktRow:
		return "ROW"
	case PktInfo:
		return "INFO"
	case PktError:
		return "ERROR"
	case PktDone:
		return "DONE"
	case PktDoneFinal:
		return "DONEFINAL"
	default:
		return fmt.Sprintf("PacketType(0x%02x)", byte(t))
	}
}

// maxPacketSize bounds a single packet, defending against corrupt streams.
const maxPacketSize = 64 << 20

// Packet is one framed protocol token.
type Packet struct {
	Type    PacketType
	Payload []byte
}

// The encoder. Every token is appended straight into its destination:
// beginToken writes the type byte and a length placeholder, the payload
// appenders below write the payload after it, and endToken back-patches
// the length. Marshal*, AppendPacket, WritePacket and WriteResults all
// encode this way.

// beginToken appends t's header with its length still to be patched.
func beginToken(dst []byte, t PacketType) []byte {
	return append(dst, byte(t), 0, 0, 0, 0)
}

// endToken back-patches the length of the token that begins at
// dst[start]. A payload over the limit is cut off again and reported.
func endToken(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - 5
	if n > maxPacketSize {
		return dst[:start], fmt.Errorf("tds: packet too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(dst[start+1:], uint32(n))
	return dst, nil
}

// AppendPacket appends p's frame to dst: type byte, 4-byte big-endian
// payload length, payload.
func AppendPacket(dst []byte, p Packet) ([]byte, error) {
	start := len(dst)
	return endToken(append(beginToken(dst, p.Type), p.Payload...), start)
}

// AppendLanguage appends a LANGUAGE token carrying sql to dst.
func AppendLanguage(dst []byte, sql string) ([]byte, error) {
	start := len(dst)
	return endToken(appendStr(beginToken(dst, PktLanguage), sql), start)
}

// WritePacket frames p and writes it in one Write, so the peer never
// wakes for a header without its payload.
func WritePacket(w io.Writer, p Packet) error {
	frame, err := AppendPacket(make([]byte, 0, 5+len(p.Payload)), p)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadPacket reads one framed packet into a payload of its own. The
// payload grows as its bytes arrive, so a length prefix alone costs no
// more than one chunk. A connection that reads many packets uses a
// Reader instead, which reuses its buffers.
func ReadPacket(r io.Reader) (Packet, error) {
	frame, err := readToken(r, nil)
	if err != nil {
		return Packet{}, err
	}
	return Packet{Type: PacketType(frame[0]), Payload: frame[5:]}, nil
}

// readToken reads one token, header and payload, into buf[:0], growing
// buf as the payload arrives. io.EOF before the first byte is returned
// as-is; EOF anywhere later is io.ErrUnexpectedEOF.
func readToken(r io.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(buf[1:]))
	if n > maxPacketSize {
		return buf[:0], fmt.Errorf("tds: packet length %d exceeds limit", n)
	}
	want := 5 + n
	for len(buf) < want {
		if len(buf) == cap(buf) {
			// At least double, at least one chunk, never past the token.
			buf = slices.Grow(buf, min(want-len(buf), max(len(buf), WriteChunk)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), want)])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// --- payload encoding ---

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendRowFmt(dst []byte, s *sqltypes.Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Len()))
	for _, c := range s.Columns {
		dst = appendStr(dst, c.Name)
		dst = append(dst, byte(c.Type.Kind))
		dst = binary.AppendUvarint(dst, uint64(c.Type.Length))
		dst = appendBool(dst, c.Nullable)
	}
	return dst
}

func appendRow(dst []byte, r sqltypes.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.Kind()))
		switch v.Kind() {
		case sqltypes.KindNull:
		case sqltypes.KindInt, sqltypes.KindBit:
			dst = binary.AppendVarint(dst, v.Int())
		case sqltypes.KindFloat:
			dst = binary.AppendUvarint(dst, math.Float64bits(v.Float()))
		case sqltypes.KindChar, sqltypes.KindVarChar, sqltypes.KindText:
			dst = appendStr(dst, v.Str())
		case sqltypes.KindDateTime:
			dst = binary.AppendVarint(dst, v.Time().UnixMilli())
		}
	}
	return dst
}

func appendDone(dst []byte, rowsAffected int) []byte {
	return binary.AppendVarint(dst, int64(rowsAffected))
}

// --- payload decoding ---
//
// Each helper decodes one field from the front of b and returns the rest
// of b. Nothing returned aliases b: str copies its bytes into a string.

func uvarint(b []byte) (uint64, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("tds: truncated uvarint")
	}
	return n, b[w:], nil
}

func varint(b []byte) (int64, []byte, error) {
	n, w := binary.Varint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("tds: truncated varint")
	}
	return n, b[w:], nil
}

func str(b []byte) (string, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, fmt.Errorf("tds: truncated string")
	}
	return string(b[:n]), b[n:], nil
}

func byteVal(b []byte) (byte, []byte, error) {
	if len(b) == 0 {
		return 0, nil, fmt.Errorf("tds: truncated byte")
	}
	return b[0], b[1:], nil
}

// expect checks a packet's type before its payload is decoded.
func expect(p Packet, want string, types ...PacketType) error {
	if slices.Contains(types, p.Type) {
		return nil
	}
	return fmt.Errorf("tds: expected %s, got %s", want, p.Type)
}

// --- message constructors / parsers ---

// Login carries the client identity.
type Login struct {
	User     string
	Database string
}

// MarshalLogin encodes a LOGIN packet.
func MarshalLogin(l Login) Packet {
	return Packet{Type: PktLogin, Payload: appendStr(appendStr(nil, l.User), l.Database)}
}

// UnmarshalLogin decodes a LOGIN packet.
func UnmarshalLogin(p Packet) (Login, error) {
	if err := expect(p, "LOGIN", PktLogin); err != nil {
		return Login{}, err
	}
	user, b, err := str(p.Payload)
	if err != nil {
		return Login{}, err
	}
	db, _, err := str(b)
	if err != nil {
		return Login{}, err
	}
	return Login{User: user, Database: db}, nil
}

// LoginAck reports login success.
type LoginAck struct {
	OK      bool
	Message string
}

// LoginRejected is a login the remote side refused; Msg is the text of
// its LOGINACK.
type LoginRejected struct{ Msg string }

func (e *LoginRejected) Error() string { return "login rejected: " + e.Msg }

// MarshalLoginAck encodes a LOGINACK packet.
func MarshalLoginAck(a LoginAck) Packet {
	return Packet{Type: PktLoginAck, Payload: appendStr(appendBool(nil, a.OK), a.Message)}
}

// UnmarshalLoginAck decodes a LOGINACK packet.
func UnmarshalLoginAck(p Packet) (LoginAck, error) {
	if err := expect(p, "LOGINACK", PktLoginAck); err != nil {
		return LoginAck{}, err
	}
	ok, b, err := byteVal(p.Payload)
	if err != nil {
		return LoginAck{}, err
	}
	msg, _, err := str(b)
	if err != nil {
		return LoginAck{}, err
	}
	return LoginAck{OK: ok == 1, Message: msg}, nil
}

// MarshalLanguage encodes a LANGUAGE (SQL batch) packet.
func MarshalLanguage(sql string) Packet {
	return Packet{Type: PktLanguage, Payload: appendStr(nil, sql)}
}

// UnmarshalLanguage decodes a LANGUAGE packet. The SQL text is the one
// allocation: it never aliases p.Payload.
func UnmarshalLanguage(p Packet) (string, error) {
	if err := expect(p, "LANGUAGE", PktLanguage); err != nil {
		return "", err
	}
	sql, _, err := str(p.Payload)
	return sql, err
}

// MarshalRowFmt encodes a result schema.
func MarshalRowFmt(s *sqltypes.Schema) Packet {
	return Packet{Type: PktRowFmt, Payload: appendRowFmt(nil, s)}
}

// UnmarshalRowFmt decodes a result schema.
func UnmarshalRowFmt(p Packet) (*sqltypes.Schema, error) {
	if err := expect(p, "ROWFMT", PktRowFmt); err != nil {
		return nil, err
	}
	n, b, err := uvarint(p.Payload)
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("tds: implausible column count %d", n)
	}
	// A column takes at least 4 bytes: name length, kind, length, nullable.
	if n > uint64(len(b)/4) {
		return nil, fmt.Errorf("tds: truncated schema")
	}
	cols := make([]sqltypes.Column, n)
	for i := range cols {
		c := &cols[i]
		var kind, nullable byte
		var length uint64
		if c.Name, b, err = str(b); err != nil {
			return nil, err
		}
		if kind, b, err = byteVal(b); err != nil {
			return nil, err
		}
		if length, b, err = uvarint(b); err != nil {
			return nil, err
		}
		if nullable, b, err = byteVal(b); err != nil {
			return nil, err
		}
		c.Type = sqltypes.Type{Kind: sqltypes.Kind(kind), Length: int(length)}
		c.Nullable = nullable == 1
	}
	return &sqltypes.Schema{Columns: cols}, nil
}

// MarshalRow encodes one result row.
func MarshalRow(r sqltypes.Row) Packet {
	return Packet{Type: PktRow, Payload: appendRow(nil, r)}
}

// UnmarshalRow decodes one result row.
func UnmarshalRow(p Packet) (sqltypes.Row, error) {
	if err := expect(p, "ROW", PktRow); err != nil {
		return nil, err
	}
	n, b, err := uvarint(p.Payload)
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("tds: implausible cell count %d", n)
	}
	// A cell takes at least its kind byte.
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("tds: truncated row")
	}
	row := make(sqltypes.Row, n)
	for i := range row {
		if row[i], b, err = decodeValue(b); err != nil {
			return nil, err
		}
	}
	return row, nil
}

func decodeValue(b []byte) (sqltypes.Value, []byte, error) {
	kind, b, err := byteVal(b)
	if err != nil {
		return sqltypes.Null, nil, err
	}
	switch k := sqltypes.Kind(kind); k {
	case sqltypes.KindNull:
		return sqltypes.Null, b, nil
	case sqltypes.KindInt, sqltypes.KindBit, sqltypes.KindDateTime:
		x, b, err := varint(b)
		if err != nil {
			return sqltypes.Null, nil, err
		}
		switch k {
		case sqltypes.KindInt:
			return sqltypes.NewInt(x), b, nil
		case sqltypes.KindBit:
			return sqltypes.NewBit(x != 0), b, nil
		}
		return sqltypes.NewDateTime(time.UnixMilli(x).UTC()), b, nil
	case sqltypes.KindFloat:
		bits, b, err := uvarint(b)
		if err != nil {
			return sqltypes.Null, nil, err
		}
		return sqltypes.NewFloat(math.Float64frombits(bits)), b, nil
	case sqltypes.KindChar, sqltypes.KindVarChar, sqltypes.KindText:
		s, b, err := str(b)
		if err != nil {
			return sqltypes.Null, nil, err
		}
		if k == sqltypes.KindText {
			return sqltypes.NewText(s), b, nil
		}
		return sqltypes.NewString(s), b, nil
	}
	return sqltypes.Null, nil, fmt.Errorf("tds: unknown value kind %d", kind)
}

// MarshalInfo encodes an informational message.
func MarshalInfo(msg string) Packet {
	return Packet{Type: PktInfo, Payload: appendStr(nil, msg)}
}

// UnmarshalText decodes INFO and ERROR payloads.
func UnmarshalText(p Packet) (string, error) {
	if err := expect(p, "INFO/ERROR", PktInfo, PktError); err != nil {
		return "", err
	}
	msg, _, err := str(p.Payload)
	return msg, err
}

// MarshalDone encodes a statement-complete token.
func MarshalDone(rowsAffected int, final bool) Packet {
	t := PktDone
	if final {
		t = PktDoneFinal
	}
	return Packet{Type: t, Payload: appendDone(nil, rowsAffected)}
}

// UnmarshalDone decodes DONE and DONEFINAL payloads.
func UnmarshalDone(p Packet) (rowsAffected int, err error) {
	if err := expect(p, "DONE", PktDone, PktDoneFinal); err != nil {
		return 0, err
	}
	n, _, err := varint(p.Payload)
	return int(n), err
}
