package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// Binary snapshot codec. The format is self-describing and versioned:
//
//	magic "ECASNAP1"
//	table := schema rows
//	schema := ncols { name type length nullable }
//	rows := nrows { ncells { kind payload } }
//
// Integers are unsigned varints; strings are length-prefixed; times are
// UnixMilli int64s (zig-zag encoded). NULL cells carry only the kind byte.

const snapMagic = "ECASNAP1"

// Writer encodes tables into a stream.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter starts a snapshot stream on w, writing the magic header.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: bufio.NewWriter(w)}
	sw.writeBytes([]byte(snapMagic))
	return sw
}

func (w *Writer) writeBytes(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *Writer) writeUvarint(n uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.writeBytes(buf[:binary.PutUvarint(buf[:], n)])
}

func (w *Writer) writeVarint(n int64) {
	var buf [binary.MaxVarintLen64]byte
	w.writeBytes(buf[:binary.PutVarint(buf[:], n)])
}

func (w *Writer) writeString(s string) {
	w.writeUvarint(uint64(len(s)))
	w.writeBytes([]byte(s))
}

func (w *Writer) writeByte(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.w.WriteByte(b)
}

// WriteString writes a free-form string record (used by the catalog for
// object names and procedure/trigger source text).
func (w *Writer) WriteString(s string) { w.writeString(s) }

// WriteUint writes an unsigned integer record.
func (w *Writer) WriteUint(n uint64) { w.writeUvarint(n) }

// WriteInt writes a signed integer record (zig-zag varint).
func (w *Writer) WriteInt(n int64) { w.writeVarint(n) }

// WriteTime writes a timestamp record at nanosecond precision (the
// checkpoint codec needs occurrence times to round-trip exactly — they
// feed action dedup keys). The zero time is encoded as a zero nanosecond
// count and restored as the zero time.
func (w *Writer) WriteTime(t time.Time) {
	if t.IsZero() {
		w.writeVarint(0)
		return
	}
	w.writeVarint(t.UnixNano())
}

// WriteTable encodes a table snapshot. It returns the table's index
// declarations, read under the same lock as the schema and rows, which the
// encoding itself does not carry.
func (w *Writer) WriteTable(t *Table) []IndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	w.writeUvarint(uint64(t.schema.Len()))
	for _, c := range t.schema.Columns {
		w.writeString(c.Name)
		w.writeByte(byte(c.Type.Kind))
		w.writeUvarint(uint64(c.Type.Length))
		if c.Nullable {
			w.writeByte(1)
		} else {
			w.writeByte(0)
		}
	}
	w.writeUvarint(uint64(len(t.rows)))
	for _, r := range t.rows {
		w.writeUvarint(uint64(len(r)))
		for _, v := range r {
			w.writeValue(v)
		}
	}
	return t.indexDefs()
}

func (w *Writer) writeValue(v sqltypes.Value) {
	w.writeByte(byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindNull:
	case sqltypes.KindInt, sqltypes.KindBit:
		w.writeVarint(v.Int())
	case sqltypes.KindFloat:
		w.writeUvarint(math.Float64bits(v.Float()))
	case sqltypes.KindChar, sqltypes.KindVarChar, sqltypes.KindText:
		w.writeString(v.Str())
	case sqltypes.KindDateTime:
		w.writeVarint(v.Time().UnixMilli())
	}
}

// Flush flushes buffered output and returns any accumulated error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes a snapshot stream written by Writer.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the magic header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("reading snapshot magic: %w", err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("bad snapshot magic %q", magic)
	}
	return &Reader{r: br}, nil
}

// ReadString reads a string record.
func (r *Reader) ReadString() (string, error) {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return "", err
	}
	if n > 1<<28 {
		return "", fmt.Errorf("string record too large (%d bytes)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// ReadUint reads an unsigned integer record.
func (r *Reader) ReadUint() (uint64, error) { return binary.ReadUvarint(r.r) }

// ReadInt reads a signed integer record.
func (r *Reader) ReadInt() (int64, error) { return binary.ReadVarint(r.r) }

// ReadTime reads a timestamp record written by WriteTime.
func (r *Reader) ReadTime() (time.Time, error) {
	ns, err := binary.ReadVarint(r.r)
	if err != nil || ns == 0 {
		return time.Time{}, err
	}
	return time.Unix(0, ns).UTC(), nil
}

// ReadTable decodes one table snapshot.
func (r *Reader) ReadTable() (*Table, error) {
	ncols, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, err
	}
	if ncols > 4096 {
		return nil, fmt.Errorf("implausible column count %d", ncols)
	}
	schema := &sqltypes.Schema{}
	for i := uint64(0); i < ncols; i++ {
		name, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		kindB, err := r.r.ReadByte()
		if err != nil {
			return nil, err
		}
		length, err := binary.ReadUvarint(r.r)
		if err != nil {
			return nil, err
		}
		nullB, err := r.r.ReadByte()
		if err != nil {
			return nil, err
		}
		schema.Columns = append(schema.Columns, sqltypes.Column{
			Name:     name,
			Type:     sqltypes.Type{Kind: sqltypes.Kind(kindB), Length: int(length)},
			Nullable: nullB == 1,
		})
	}
	nrows, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, err
	}
	t := NewTable(schema)
	rows := make([]sqltypes.Row, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		ncells, err := binary.ReadUvarint(r.r)
		if err != nil {
			return nil, err
		}
		if ncells != ncols {
			return nil, fmt.Errorf("row %d has %d cells, schema has %d columns", i, ncells, ncols)
		}
		row := make(sqltypes.Row, ncells)
		for j := uint64(0); j < ncells; j++ {
			v, err := r.readValue()
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	// Bypass validation: the snapshot is trusted to already satisfy the
	// schema it was written with.
	t.rows = rows
	return t, nil
}

func (r *Reader) readValue() (sqltypes.Value, error) {
	kindB, err := r.r.ReadByte()
	if err != nil {
		return sqltypes.Null, err
	}
	switch sqltypes.Kind(kindB) {
	case sqltypes.KindNull:
		return sqltypes.Null, nil
	case sqltypes.KindInt:
		n, err := binary.ReadVarint(r.r)
		return sqltypes.NewInt(n), err
	case sqltypes.KindBit:
		n, err := binary.ReadVarint(r.r)
		return sqltypes.NewBit(n != 0), err
	case sqltypes.KindFloat:
		bits, err := binary.ReadUvarint(r.r)
		return sqltypes.NewFloat(math.Float64frombits(bits)), err
	case sqltypes.KindChar, sqltypes.KindVarChar:
		s, err := r.ReadString()
		return sqltypes.NewString(s), err
	case sqltypes.KindText:
		s, err := r.ReadString()
		return sqltypes.NewText(s), err
	case sqltypes.KindDateTime:
		ms, err := binary.ReadVarint(r.r)
		return sqltypes.NewDateTime(time.UnixMilli(ms).UTC()), err
	default:
		return sqltypes.Null, fmt.Errorf("unknown value kind %d in snapshot", kindB)
	}
}
