package agent

import (
	"bytes"

	"github.com/activedb/ecaagent/internal/led"
)

// DeliverBatchBytes ingests one datagram that may carry several
// notifications — either the newline-batched text form the generated
// triggers emit or one ECB1 binary frame (notifcodec.go), sniffed by
// magic. Every notification is decoded and ingested on the caller's
// goroutine (the notifier's listener for UDP), in wire order, exactly like
// repeated Deliver calls: ingest serializes on the watermark lock anyway,
// and the socket's receive buffer is the queue in front of it.
//
// The caller keeps ownership of data — nothing in the decode retains it
// (names are interned, occurrences copied) — which is what lets the
// notifier hand its one receive buffer straight in.
func (a *Agent) DeliverBatchBytes(data []byte) {
	a.waitReady()
	var good, bad int
	if IsBinaryBatch(data) {
		a.met.binaryBatches.Inc()
		// The frame fails as a unit (decode validates before the first
		// emit), so one dropped datagram, nothing ingested.
		n, err := decodeBinaryBatch(data, &wireNames, a.ingest)
		good = n
		if err != nil {
			bad = 1
			a.cfg.Logf("agent: dropping binary batch: %v", err)
		}
	} else {
		good, bad = decodeText(data, a.ingest, func(err error) {
			a.cfg.Logf("agent: dropping notification: %v", err)
		})
	}
	a.met.notifReceived.Add(uint64(good + bad))
	a.met.notifDropped.Add(uint64(bad))
}

// DeliverBatch is the string-typed convenience form of DeliverBatchBytes.
func (a *Agent) DeliverBatch(datagram string) {
	a.DeliverBatchBytes([]byte(datagram))
}

// DecodeBatchBytes decodes a newline-batched text datagram through the
// process-wide name table, calling emit per decoded notification and
// onErr per malformed line; it returns the good and bad line counts. The
// exported, allocation-free counterpart of DeliverBatch for embedders
// and benchmarks that decode without delivering.
func DecodeBatchBytes(data []byte, emit func(led.Primitive), onErr func(error)) (good, bad int) {
	return decodeText(data, emit, onErr)
}

// decodeText walks a newline-batched text datagram, calling emit for every
// decoded notification (in wire order) and onErr for every malformed line.
// Blank lines (a trailing newline) are neither. It returns the good and
// bad line counts. With interned names and a non-capturing emit the walk
// performs no allocations; TestAllocsDecodeTextClean pins that.
func decodeText(data []byte, emit func(led.Primitive), onErr func(error)) (good, bad int) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		event, table, op, vno, err := parseNotificationBytes(line, &wireNames)
		if err != nil {
			bad++
			onErr(err)
			continue
		}
		good++
		emit(led.Primitive{Event: event, Table: table, Op: op, VNo: vno})
	}
	return good, bad
}

// decodeBatch splits a batched text datagram into its notification lines
// and parses each, returning the decoded primitives in wire order plus one
// error per malformed line (the allocating convenience form of
// decodeText).
func decodeBatch(datagram []byte) (prims []led.Primitive, badLines []error) {
	decodeText(datagram,
		func(p led.Primitive) { prims = append(prims, p) },
		func(err error) { badLines = append(badLines, err) })
	return prims, badLines
}
