package storage

import (
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
//
// The same records frame the agent's checkpoint payload and journal
// records. Every element of every counted section takes at least one
// byte, so a count larger than the bytes left is damage (Reader.Count).

// Magic heads every stream NewWriter starts.
const Magic = "ECASNAP1"

// AppendString appends a length-prefixed string record to b.
func AppendString(b []byte, s string) []byte {
	return append(AppendUint(b, uint64(len(s))), s...)
}

// AppendUint appends an unsigned integer record to b.
func AppendUint(b []byte, n uint64) []byte { return binary.AppendUvarint(b, n) }

// AppendInt appends a signed integer record (zig-zag varint) to b.
func AppendInt(b []byte, n int64) []byte { return binary.AppendVarint(b, n) }

// AppendTime appends a timestamp record at nanosecond precision (the
// checkpoint and the journal need occurrence times to round-trip exactly
// — they feed action dedup keys). The zero time is encoded as a zero
// nanosecond count and restored as the zero time.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return AppendInt(b, 0)
	}
	return AppendInt(b, t.UnixNano())
}

// Writer encodes records into a stream. Its first write error is sticky
// and reported by Flush.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter starts a snapshot stream on w, writing the magic header.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: []byte(Magic)}
}

// spill hands the buffered records to the underlying writer once they
// fill a page.
func (w *Writer) spill() {
	if len(w.buf) >= 4096 {
		_ = w.Flush()
	}
}

// WriteString writes a free-form string record (used by the catalog for
// object names and procedure/trigger source text).
func (w *Writer) WriteString(s string) { w.buf = AppendString(w.buf, s); w.spill() }

// WriteUint writes an unsigned integer record.
func (w *Writer) WriteUint(n uint64) { w.buf = AppendUint(w.buf, n); w.spill() }

// WriteInt writes a signed integer record (zig-zag varint).
func (w *Writer) WriteInt(n int64) { w.buf = AppendInt(w.buf, n); w.spill() }

// WriteTime writes a timestamp record (see AppendTime).
func (w *Writer) WriteTime(t time.Time) { w.buf = AppendTime(w.buf, t); w.spill() }

// WriteTable encodes a table snapshot. It returns the table's index
// declarations, read under the same lock as the schema and rows, which the
// encoding itself does not carry.
func (w *Writer) WriteTable(t *Table) []IndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	w.WriteUint(uint64(t.schema.Len()))
	for _, c := range t.schema.Columns {
		w.buf = AppendString(w.buf, c.Name)
		w.buf = append(w.buf, byte(c.Type.Kind))
		w.buf = AppendUint(w.buf, uint64(c.Type.Length))
		if c.Nullable {
			w.buf = append(w.buf, 1)
		} else {
			w.buf = append(w.buf, 0)
		}
	}
	w.WriteUint(uint64(len(t.rows)))
	for _, r := range t.rows {
		w.buf = AppendUint(w.buf, uint64(len(r)))
		for _, v := range r {
			w.buf = appendValue(w.buf, v)
		}
		w.spill()
	}
	return t.indexDefs()
}

func appendValue(b []byte, v sqltypes.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindInt, sqltypes.KindBit:
		b = AppendInt(b, v.Int())
	case sqltypes.KindFloat:
		b = AppendUint(b, math.Float64bits(v.Float()))
	case sqltypes.KindChar, sqltypes.KindVarChar, sqltypes.KindText:
		b = AppendString(b, v.Str())
	case sqltypes.KindDateTime:
		b = AppendInt(b, v.Time().UnixMilli())
	}
	return b
}

// Flush writes the buffered records and returns the first error.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// Reader decodes records from a byte slice. Its first failure is sticky:
// every later read returns a zero value (and Count zero, which ends every
// counted loop), and Err reports the failure. This is the one place that
// decides what a short or implausible durable record is.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads records from b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("storage: at byte %d: "+format, append([]any{r.off}, args...)...)
	}
}

// take consumes the next n bytes, or fails and returns nil.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.fail("record of %d bytes runs past the %d left", n, r.Len())
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Expect consumes a magic header, failing the reader if it is absent.
func (r *Reader) Expect(magic string) {
	if b := r.take(uint64(len(magic))); r.err == nil && string(b) != magic {
		r.fail("bad magic %q", b)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint reads an unsigned integer record.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	n, sz := binary.Uvarint(r.b[r.off:])
	if sz <= 0 {
		r.fail("bad unsigned varint")
		return 0
	}
	r.off += sz
	return n
}

// Int reads a signed integer record.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	n, sz := binary.Varint(r.b[r.off:])
	if sz <= 0 {
		r.fail("bad signed varint")
		return 0
	}
	r.off += sz
	return n
}

// Count reads the element count of a section. A count larger than the
// bytes left fails the reader and returns zero, so no caller sizes an
// allocation or a loop from a corrupt count.
func (r *Reader) Count() int {
	n := r.Uint()
	if n > uint64(r.Len()) {
		r.fail("count %d exceeds the %d bytes left", n, r.Len())
		return 0
	}
	return int(n)
}

// String reads a string record.
func (r *Reader) String() string { return string(r.take(r.Uint())) }

// Time reads a timestamp record written by AppendTime.
func (r *Reader) Time() time.Time {
	if ns := r.Int(); ns != 0 {
		return time.Unix(0, ns).UTC()
	}
	return time.Time{}
}

// Table decodes one table snapshot; it returns nil once the reader has
// failed.
func (r *Reader) Table() *Table {
	schema := &sqltypes.Schema{}
	ncols := r.Count()
	for range ncols {
		schema.Columns = append(schema.Columns, sqltypes.Column{
			Name:     r.String(),
			Type:     sqltypes.Type{Kind: sqltypes.Kind(r.Byte()), Length: int(r.Uint())},
			Nullable: r.Byte() == 1,
		})
	}
	nrows := r.Count()
	rows := make([]sqltypes.Row, 0, nrows)
	for i := range nrows {
		if n := r.Count(); n != ncols {
			r.fail("row %d has %d cells, schema has %d columns", i, n, ncols)
		}
		if r.err != nil {
			return nil
		}
		row := make(sqltypes.Row, ncols)
		for j := range row {
			row[j] = r.value()
		}
		rows = append(rows, row)
	}
	if r.err != nil {
		return nil
	}
	// Bypass validation: the snapshot is trusted to already satisfy the
	// schema it was written with.
	t := NewTable(schema)
	t.rows = rows
	return t
}

func (r *Reader) value() sqltypes.Value {
	switch k := sqltypes.Kind(r.Byte()); k {
	case sqltypes.KindNull:
		return sqltypes.Null
	case sqltypes.KindInt:
		return sqltypes.NewInt(r.Int())
	case sqltypes.KindBit:
		return sqltypes.NewBit(r.Int() != 0)
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(math.Float64frombits(r.Uint()))
	case sqltypes.KindChar, sqltypes.KindVarChar:
		return sqltypes.NewString(r.String())
	case sqltypes.KindText:
		return sqltypes.NewText(r.String())
	case sqltypes.KindDateTime:
		return sqltypes.NewDateTime(time.UnixMilli(r.Int()).UTC())
	default:
		r.fail("unknown value kind %d", k)
		return sqltypes.Null
	}
}
