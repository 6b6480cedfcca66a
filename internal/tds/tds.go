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

// AppendPacket appends p's frame to dst: type byte, 4-byte big-endian
// payload length, payload.
func AppendPacket(dst []byte, p Packet) ([]byte, error) {
	if len(p.Payload) > maxPacketSize {
		return dst, fmt.Errorf("tds: packet too large (%d bytes)", len(p.Payload))
	}
	dst = append(dst, byte(p.Type))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Payload)))
	return append(dst, p.Payload...), nil
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

// ReadPacket reads one framed packet.
func ReadPacket(r io.Reader) (Packet, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Packet{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxPacketSize {
		return Packet{}, fmt.Errorf("tds: packet length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Packet{}, err
	}
	return Packet{Type: PacketType(hdr[0]), Payload: payload}, nil
}

// --- payload encoding helpers ---

type encoder struct{ buf []byte }

func (e *encoder) uvarint(n uint64) {
	var tmp [binary.MaxVarintLen64]byte
	e.buf = append(e.buf, tmp[:binary.PutUvarint(tmp[:], n)]...)
}

func (e *encoder) varint(n int64) {
	var tmp [binary.MaxVarintLen64]byte
	e.buf = append(e.buf, tmp[:binary.PutVarint(tmp[:], n)]...)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) uvarint() (uint64, error) {
	n, w := binary.Uvarint(d.buf[d.pos:])
	if w <= 0 {
		return 0, fmt.Errorf("tds: truncated uvarint")
	}
	d.pos += w
	return n, nil
}

func (d *decoder) varint() (int64, error) {
	n, w := binary.Varint(d.buf[d.pos:])
	if w <= 0 {
		return 0, fmt.Errorf("tds: truncated varint")
	}
	d.pos += w
	return n, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return "", fmt.Errorf("tds: truncated string")
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) byteVal() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("tds: truncated byte")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// --- message constructors / parsers ---

// Login carries the client identity.
type Login struct {
	User     string
	Database string
}

// MarshalLogin encodes a LOGIN packet.
func MarshalLogin(l Login) Packet {
	var e encoder
	e.str(l.User)
	e.str(l.Database)
	return Packet{Type: PktLogin, Payload: e.buf}
}

// UnmarshalLogin decodes a LOGIN packet.
func UnmarshalLogin(p Packet) (Login, error) {
	if p.Type != PktLogin {
		return Login{}, fmt.Errorf("tds: expected LOGIN, got %s", p.Type)
	}
	d := decoder{buf: p.Payload}
	user, err := d.str()
	if err != nil {
		return Login{}, err
	}
	db, err := d.str()
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

// MarshalLoginAck encodes a LOGINACK packet.
func MarshalLoginAck(a LoginAck) Packet {
	var e encoder
	if a.OK {
		e.byte(1)
	} else {
		e.byte(0)
	}
	e.str(a.Message)
	return Packet{Type: PktLoginAck, Payload: e.buf}
}

// UnmarshalLoginAck decodes a LOGINACK packet.
func UnmarshalLoginAck(p Packet) (LoginAck, error) {
	if p.Type != PktLoginAck {
		return LoginAck{}, fmt.Errorf("tds: expected LOGINACK, got %s", p.Type)
	}
	d := decoder{buf: p.Payload}
	ok, err := d.byteVal()
	if err != nil {
		return LoginAck{}, err
	}
	msg, err := d.str()
	if err != nil {
		return LoginAck{}, err
	}
	return LoginAck{OK: ok == 1, Message: msg}, nil
}

// MarshalLanguage encodes a LANGUAGE (SQL batch) packet.
func MarshalLanguage(sql string) Packet {
	var e encoder
	e.str(sql)
	return Packet{Type: PktLanguage, Payload: e.buf}
}

// UnmarshalLanguage decodes a LANGUAGE packet.
func UnmarshalLanguage(p Packet) (string, error) {
	if p.Type != PktLanguage {
		return "", fmt.Errorf("tds: expected LANGUAGE, got %s", p.Type)
	}
	d := decoder{buf: p.Payload}
	return d.str()
}

// MarshalRowFmt encodes a result schema.
func MarshalRowFmt(s *sqltypes.Schema) Packet {
	var e encoder
	e.uvarint(uint64(s.Len()))
	for _, c := range s.Columns {
		e.str(c.Name)
		e.byte(byte(c.Type.Kind))
		e.uvarint(uint64(c.Type.Length))
		if c.Nullable {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}
	return Packet{Type: PktRowFmt, Payload: e.buf}
}

// UnmarshalRowFmt decodes a result schema.
func UnmarshalRowFmt(p Packet) (*sqltypes.Schema, error) {
	if p.Type != PktRowFmt {
		return nil, fmt.Errorf("tds: expected ROWFMT, got %s", p.Type)
	}
	d := decoder{buf: p.Payload}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("tds: implausible column count %d", n)
	}
	s := &sqltypes.Schema{}
	for i := uint64(0); i < n; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		kind, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		length, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		nullable, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, sqltypes.Column{
			Name:     name,
			Type:     sqltypes.Type{Kind: sqltypes.Kind(kind), Length: int(length)},
			Nullable: nullable == 1,
		})
	}
	return s, nil
}

// MarshalRow encodes one result row.
func MarshalRow(r sqltypes.Row) Packet {
	var e encoder
	e.uvarint(uint64(len(r)))
	for _, v := range r {
		e.byte(byte(v.Kind()))
		switch v.Kind() {
		case sqltypes.KindNull:
		case sqltypes.KindInt, sqltypes.KindBit:
			e.varint(v.Int())
		case sqltypes.KindFloat:
			e.uvarint(math.Float64bits(v.Float()))
		case sqltypes.KindChar, sqltypes.KindVarChar, sqltypes.KindText:
			e.str(v.Str())
		case sqltypes.KindDateTime:
			e.varint(v.Time().UnixMilli())
		}
	}
	return Packet{Type: PktRow, Payload: e.buf}
}

// UnmarshalRow decodes one result row.
func UnmarshalRow(p Packet) (sqltypes.Row, error) {
	if p.Type != PktRow {
		return nil, fmt.Errorf("tds: expected ROW, got %s", p.Type)
	}
	d := decoder{buf: p.Payload}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("tds: implausible cell count %d", n)
	}
	row := make(sqltypes.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		kind, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		var v sqltypes.Value
		switch sqltypes.Kind(kind) {
		case sqltypes.KindNull:
			v = sqltypes.Null
		case sqltypes.KindInt:
			x, err := d.varint()
			if err != nil {
				return nil, err
			}
			v = sqltypes.NewInt(x)
		case sqltypes.KindBit:
			x, err := d.varint()
			if err != nil {
				return nil, err
			}
			v = sqltypes.NewBit(x != 0)
		case sqltypes.KindFloat:
			bits, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			v = sqltypes.NewFloat(math.Float64frombits(bits))
		case sqltypes.KindChar, sqltypes.KindVarChar:
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			v = sqltypes.NewString(s)
		case sqltypes.KindText:
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			v = sqltypes.NewText(s)
		case sqltypes.KindDateTime:
			ms, err := d.varint()
			if err != nil {
				return nil, err
			}
			v = sqltypes.NewDateTime(time.UnixMilli(ms).UTC())
		default:
			return nil, fmt.Errorf("tds: unknown value kind %d", kind)
		}
		row = append(row, v)
	}
	return row, nil
}

// MarshalInfo encodes an informational message.
func MarshalInfo(msg string) Packet {
	var e encoder
	e.str(msg)
	return Packet{Type: PktInfo, Payload: e.buf}
}

// MarshalError encodes a statement error.
func MarshalError(msg string) Packet {
	var e encoder
	e.str(msg)
	return Packet{Type: PktError, Payload: e.buf}
}

// UnmarshalText decodes INFO and ERROR payloads.
func UnmarshalText(p Packet) (string, error) {
	if p.Type != PktInfo && p.Type != PktError {
		return "", fmt.Errorf("tds: expected INFO/ERROR, got %s", p.Type)
	}
	d := decoder{buf: p.Payload}
	return d.str()
}

// MarshalDone encodes a statement-complete token.
func MarshalDone(rowsAffected int, final bool) Packet {
	var e encoder
	e.varint(int64(rowsAffected))
	t := PktDone
	if final {
		t = PktDoneFinal
	}
	return Packet{Type: t, Payload: e.buf}
}

// UnmarshalDone decodes DONE and DONEFINAL payloads.
func UnmarshalDone(p Packet) (rowsAffected int, err error) {
	if p.Type != PktDone && p.Type != PktDoneFinal {
		return 0, fmt.Errorf("tds: expected DONE, got %s", p.Type)
	}
	d := decoder{buf: p.Payload}
	n, err := d.varint()
	return int(n), err
}
