// Package idfix exercises iodeadline: its import path sits under the
// transport prefix internal/cluster.
package idfix

import (
	"bufio"
	"net"
	"time"

	"idhelper"
)

func rawRead(conn net.Conn, buf []byte) {
	conn.Read(buf) // want `blocking read: Read on conn has no reachable SetReadDeadline`
}

func deadlinedRead(conn net.Conn, buf []byte) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	conn.Read(buf)
}

// A deadline set once before a loop reaches every iteration's write.
func loopWrite(conn net.Conn, p []byte) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	for i := 0; i < 3; i++ {
		conn.Write(p)
	}
}

// The wrong direction does not satisfy: a read deadline leaves writes
// unbounded.
func wrongDirection(conn net.Conn, p []byte) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	conn.Write(p) // want `blocking write: Write on conn has no reachable SetWriteDeadline`
}

// SetDeadline covers both directions.
func bothDirections(conn net.Conn, buf []byte) {
	conn.SetDeadline(time.Now().Add(time.Second))
	conn.Read(buf)
	conn.Write(buf)
}

// A bufio reader derived from the conn inherits its obligation.
func derivedReader(conn net.Conn) {
	r := bufio.NewReader(conn)
	r.ReadByte() // want `blocking read: ReadByte via r on conn has no reachable SetReadDeadline`
}

// Looking at the buffer does not touch the conn.
func derivedReaderBuffered(conn net.Conn) int {
	r := bufio.NewReader(conn)
	r.UnreadByte()
	return r.Buffered() + r.Size()
}

func derivedReaderDeadlined(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	r := bufio.NewReader(conn)
	r.ReadByte()
}

// Passing a derived reader to any function is a blocking read on the
// underlying conn.
func derivedReaderArg(conn net.Conn, buf []byte) {
	r := bufio.NewReader(conn)
	fill(r, buf) // want `blocking read: fill\(r\) on conn has no reachable SetReadDeadline`
}

func fill(r *bufio.Reader, p []byte) {
	r.Read(p)
}

// Cross-package: the helper's "blocks" fact carries the obligation to
// this call site; its "deadlines" fact satisfies it.
func helperRead(conn net.Conn, buf []byte) {
	idhelper.ReadMsg(conn, buf) // want `blocking read: ReadMsg\(conn\) has no reachable SetReadDeadline on conn`
}

func helperPrepared(conn net.Conn, buf []byte) {
	idhelper.Prepare(conn, time.Second)
	idhelper.ReadMsg(conn, buf)
}

// Self-contained helpers export no obligation.
func helperSend(conn net.Conn, p []byte) {
	idhelper.SendAll(conn, p)
}

// A deadline on an unreachable path does not satisfy.
func unreachableDeadline(conn net.Conn, buf []byte, never bool) {
	if never {
		return
	}
	conn.Read(buf) // want `blocking read: Read on conn has no reachable SetReadDeadline`
	return
	conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:govet
}
