package tds

import (
	"fmt"
	"io"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// ServerError is an error reported by the remote side inside the result
// stream (as opposed to a transport failure).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// writeChunk caps the encoded bytes WriteResults holds before writing
// them out: a response up to this size is one Write, and a larger result
// set is written in chunks of about this size rather than buffered whole.
const writeChunk = 64 << 10

// WriteResults streams a slice of materialized result sets as protocol
// tokens, appending an ERROR token if execErr is non-nil, and terminates
// the response with DONEFINAL. The token order per result set is
// ROWFMT, ROW*, INFO*, DONE — the order a real server emits. The tokens
// are encoded into one buffer and written together, so a response of up
// to writeChunk bytes costs one Write.
func WriteResults(w io.Writer, results []*sqltypes.ResultSet, execErr error) error {
	rw := responseWriter{w: w}
	for _, rs := range results {
		if rs == nil {
			continue
		}
		if rs.Schema != nil {
			rw.put(MarshalRowFmt(rs.Schema))
			for _, row := range rs.Rows {
				rw.put(MarshalRow(row))
			}
		}
		for _, msg := range rs.Messages {
			rw.put(MarshalInfo(msg))
		}
		rw.put(MarshalDone(rs.RowsAffected, false))
	}
	if execErr != nil {
		rw.put(MarshalError(execErr.Error()))
	}
	rw.put(MarshalDone(0, true))
	return rw.flush()
}

// responseWriter frames packets into one buffer and writes the buffer out
// whenever it reaches writeChunk. The first error sticks.
type responseWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (rw *responseWriter) put(p Packet) {
	if rw.err != nil {
		return
	}
	rw.buf, rw.err = AppendPacket(rw.buf, p)
	if len(rw.buf) >= writeChunk {
		rw.flush()
	}
}

func (rw *responseWriter) flush() error {
	if rw.err == nil && len(rw.buf) > 0 {
		_, rw.err = rw.w.Write(rw.buf)
		rw.buf = rw.buf[:0]
	}
	return rw.err
}

// ReadResponse consumes tokens until DONEFINAL, reassembling materialized
// result sets. A remote ERROR token is returned as *ServerError alongside
// any results that preceded it; transport failures are returned as-is.
// It makes two reads per token, so r should be buffered: client.Conn
// passes its connection's bufio.Reader.
func ReadResponse(r io.Reader) ([]*sqltypes.ResultSet, error) {
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
		p, err := ReadPacket(r)
		if err != nil {
			return results, err
		}
		switch p.Type {
		case PktRowFmt:
			schema, err := UnmarshalRowFmt(p)
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
		case PktInfo:
			msg, err := UnmarshalText(p)
			if err != nil {
				return results, err
			}
			ensure().Messages = append(ensure().Messages, msg)
		case PktError:
			msg, err := UnmarshalText(p)
			if err != nil {
				return results, err
			}
			srvErr = &ServerError{Msg: msg}
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
