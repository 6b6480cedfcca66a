package tds

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// ServerError is an error reported by the remote side inside the result
// stream (as opposed to a transport failure).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// WriteChunk caps the encoded bytes WriteResults holds before writing
// them out: a response up to this size is one Write, and a larger result
// set is written in chunks of about this size rather than buffered whole.
// client.Conn.Pipeline caps each write of requests at the same size. It
// is also the most a connection's buffer keeps between messages: a
// buffer that one oversized message grew past it is dropped.
const WriteChunk = 64 << 10

// ResponseWriter writes one connection's responses through one encode
// buffer that it keeps from response to response.
type ResponseWriter struct {
	w     io.Writer
	buf   []byte
	start int   // offset in buf of the token being encoded
	err   error // the first error of the response in progress
}

// NewResponseWriter returns a ResponseWriter that writes to w.
func NewResponseWriter(w io.Writer) *ResponseWriter { return &ResponseWriter{w: w} }

// WriteResults streams a slice of materialized result sets as protocol
// tokens, appending an ERROR token if execErr is non-nil, and terminates
// the response with DONEFINAL. The token order per result set is
// ROWFMT, ROW*, INFO*, DONE — the order a real server emits. A response
// of up to WriteChunk bytes costs one Write.
func WriteResults(w io.Writer, results []*sqltypes.ResultSet, execErr error) error {
	return NewResponseWriter(w).WriteResults(results, execErr)
}

// WriteResults is the package WriteResults through rw's buffer.
func (rw *ResponseWriter) WriteResults(results []*sqltypes.ResultSet, execErr error) error {
	rw.buf, rw.err = rw.buf[:0], nil
	for _, rs := range results {
		if rs == nil {
			continue
		}
		if rs.Schema != nil {
			rw.end(appendRowFmt(rw.begin(PktRowFmt), rs.Schema))
			for _, row := range rs.Rows {
				rw.end(appendRow(rw.begin(PktRow), row))
			}
		}
		for _, msg := range rs.Messages {
			rw.end(appendStr(rw.begin(PktInfo), msg))
		}
		rw.end(appendDone(rw.begin(PktDone), rs.RowsAffected))
	}
	if execErr != nil {
		rw.end(appendStr(rw.begin(PktError), execErr.Error()))
	}
	rw.end(appendDone(rw.begin(PktDoneFinal), 0))
	rw.flush()
	if cap(rw.buf) > WriteChunk {
		rw.buf = nil
	}
	return rw.err
}

// begin starts a token at the end of the buffer and returns the buffer
// for its payload to be appended to.
func (rw *ResponseWriter) begin(t PacketType) []byte {
	rw.start = len(rw.buf)
	return beginToken(rw.buf, t)
}

// end takes back the buffer with the token's payload appended, patches
// its length, and writes the buffer out once it holds WriteChunk bytes.
// After the first error the rest of the response is not written.
func (rw *ResponseWriter) end(b []byte) {
	if rw.err != nil {
		rw.buf = b[:rw.start]
		return
	}
	rw.buf, rw.err = endToken(b, rw.start)
	if len(rw.buf) >= WriteChunk {
		rw.flush()
	}
}

func (rw *ResponseWriter) flush() {
	if rw.err == nil && len(rw.buf) > 0 {
		_, rw.err = rw.w.Write(rw.buf)
		rw.buf = rw.buf[:0]
	}
}

// Reader reads one connection's tokens. A token that fits the buffer of
// the *bufio.Reader it reads from is decoded where it lies in that
// buffer; a larger one, or any token when the source is not a
// *bufio.Reader, is read into a scratch buffer the Reader keeps for the
// next one (up to WriteChunk bytes of it). Values it decodes never alias
// either buffer.
type Reader struct {
	src     io.Reader
	br      *bufio.Reader // src, when it is one
	scratch []byte
	// fmtRaw is the payload of the last ROWFMT decoded, and schema the
	// schema it decoded to; schemas are read-only, so an identical ROWFMT
	// returns the same one.
	fmtRaw []byte
	schema *sqltypes.Schema
}

// NewReader returns a Reader that reads tokens from r.
func NewReader(r io.Reader) *Reader {
	br, _ := r.(*bufio.Reader)
	return &Reader{src: r, br: br}
}

// Next reads one token. Its payload aliases the Reader's buffers and is
// valid until the next call; the Unmarshal functions copy what they
// decode out of it. EOF before a token is io.EOF; EOF inside one is
// io.ErrUnexpectedEOF.
func (rd *Reader) Next() (Packet, error) {
	if br := rd.br; br != nil {
		hdr, err := br.Peek(5)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return Packet{}, err
		}
		if n := int(binary.BigEndian.Uint32(hdr[1:])); n <= br.Size()-5 {
			frame, err := br.Peek(5 + n)
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return Packet{}, err
			}
			// Discard only moves the read offset: the bytes stay put until
			// the next Peek refills the buffer.
			_, _ = br.Discard(5 + n)
			return Packet{Type: PacketType(frame[0]), Payload: frame[5:]}, nil
		}
	}
	frame, err := readToken(rd.src, rd.scratch)
	if cap(frame) <= WriteChunk {
		rd.scratch = frame
	} else {
		rd.scratch = nil // one oversized token must not pin its buffer for the connection's life
	}
	if err != nil {
		return Packet{}, err
	}
	return Packet{Type: PacketType(frame[0]), Payload: frame[5:]}, nil
}

// ReadResponse consumes tokens until DONEFINAL, reassembling materialized
// result sets. A remote ERROR token is returned as *ServerError alongside
// any results that preceded it; transport failures are returned as-is.
// What it returns is allocated for the caller: strings, rows, result sets
// and schemas never alias the Reader's buffers (a schema may be the one an
// earlier response returned, when its ROWFMT was the same).
func (rd *Reader) ReadResponse() ([]*sqltypes.ResultSet, error) {
	var (
		results []*sqltypes.ResultSet
		cur     *sqltypes.ResultSet
		srvErr  error
	)
	ensure := func() *sqltypes.ResultSet {
		if cur == nil {
			cur = &sqltypes.ResultSet{}
		}
		return cur
	}
	for {
		p, err := rd.Next()
		if err != nil {
			return results, err
		}
		switch p.Type {
		case PktRowFmt:
			schema, err := rd.rowFmt(p)
			if err != nil {
				return results, err
			}
			ensure().Schema = schema
		case PktRow:
			row, err := UnmarshalRow(p)
			if err != nil {
				return results, err
			}
			ensure().Rows = append(ensure().Rows, row)
		case PktInfo, PktError:
			msg, err := UnmarshalText(p)
			if err != nil {
				return results, err
			}
			if p.Type == PktError {
				srvErr = &ServerError{Msg: msg}
			} else {
				ensure().Messages = append(ensure().Messages, msg)
			}
		case PktDone:
			n, err := UnmarshalDone(p)
			if err != nil {
				return results, err
			}
			ensure().RowsAffected = n
			results = append(results, cur)
			cur = nil
		case PktDoneFinal:
			if cur != nil {
				results = append(results, cur)
			}
			return results, srvErr
		default:
			return results, fmt.Errorf("tds: unexpected token %s in response", p.Type)
		}
	}
}

// rowFmt decodes a ROWFMT token, returning the previous schema when the
// payload is the same.
func (rd *Reader) rowFmt(p Packet) (*sqltypes.Schema, error) {
	if rd.schema != nil && bytes.Equal(p.Payload, rd.fmtRaw) {
		return rd.schema, nil
	}
	s, err := UnmarshalRowFmt(p)
	if err != nil {
		return nil, err
	}
	rd.schema, rd.fmtRaw = s, append(rd.fmtRaw[:0], p.Payload...)
	return s, nil
}

// ReadResponse reads one response from r through a Reader made for this
// call alone. A connection that reads many responses keeps one Reader
// instead, so its buffers and its last schema carry over.
func ReadResponse(r io.Reader) ([]*sqltypes.ResultSet, error) {
	return NewReader(r).ReadResponse()
}
