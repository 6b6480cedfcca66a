package agent

import (
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/led"
)

// Malformed datagrams — truncated, oversized, duplicate-field, junk vNo —
// must be counted in NotificationsDropped and never panic or reach the LED.
func TestParseNotificationRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		msg  string
	}{
		{"empty", ""},
		{"wrong magic", "ECA2|e|t|insert|1"},
		{"truncated after magic", "ECA1"},
		{"truncated missing vNo field", "ECA1|e|t|insert"},
		{"truncated mid-field", "ECA1|e|t|ins"},
		{"duplicate field", "ECA1|e|t|insert|1|1"},
		{"duplicate event field", "ECA1|e|e|t|insert|1"},
		{"oversized", "ECA1|" + strings.Repeat("x", maxNotificationLen) + "|t|insert|1"},
		{"empty event", "ECA1||t|insert|1"},
		{"empty table", "ECA1|e||insert|1"},
		{"empty op", "ECA1|e|t||1"},
		{"empty vNo", "ECA1|e|t|insert|"},
		{"junk vNo", "ECA1|e|t|insert|12x"},
		{"negative vNo", "ECA1|e|t|insert|-1"},
		{"vNo overflow", "ECA1|e|t|insert|99999999999999999999999"},
	}
	r := newRig(t)
	before := r.agent.Stats()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, _, err := parseNotificationBytes([]byte(tc.msg), &wireNames); err == nil {
				t.Errorf("parseNotificationBytes(%q) accepted", tc.msg)
			}
			r.agent.Deliver(tc.msg)
		})
	}
	// The empty datagram holds no line, so it counts as nothing; every
	// other case is one received and dropped line.
	want := uint64(len(cases) - 1)
	after := r.agent.Stats()
	if got := after.NotificationsDropped - before.NotificationsDropped; got != want {
		t.Errorf("NotificationsDropped advanced by %d, want %d", got, want)
	}
	if after.NotificationsReceived-before.NotificationsReceived != want {
		t.Errorf("NotificationsReceived: %+v", after)
	}
}

func TestParseNotificationAcceptsWellFormed(t *testing.T) {
	event, table, op, vno, err := parseNotificationBytes([]byte("ECA1|db.u.ev|db.u.tbl|insert|42\n"), &wireNames)
	if err != nil {
		t.Fatal(err)
	}
	if event != "db.u.ev" || table != "db.u.tbl" || op != "insert" || vno != 42 {
		t.Errorf("decoded %q %q %q %d", event, table, op, vno)
	}
}

// FuzzParseNotification drives the decoder with arbitrary datagrams; it
// must reject or decode, never panic, and a decoded vNo is never negative.
func FuzzParseNotification(f *testing.F) {
	f.Add("ECA1|db.u.ev|db.u.tbl|insert|42")
	f.Add("ECA1|e|t|insert|1|1")
	f.Add("ECA1|e|t|insert")
	f.Add("ECA1||||")
	f.Add(strings.Repeat("|", 100))
	f.Add("ECA1|e|t|insert|99999999999999999999999")
	f.Add("ECA1|e|t|update|0")
	f.Add("ECA1|e|t|delete|-1")
	f.Add("ECA1|e|t|insert|+7")
	f.Add("ECA1|e|t|insert|07")
	f.Add("GED1|site|e|t|insert|1")
	f.Add("ECA1|e|t|insert|1\n")
	f.Add("ECA1|e|t|insert|1\nECA1|e|t|insert|2")
	f.Add("ECA1|" + strings.Repeat("x", 5000) + "|t|insert|1")
	f.Add("eca1|e|t|insert|1")
	f.Add("ECA1|e|t|INSERT|1")
	f.Fuzz(func(t *testing.T, msg string) {
		_, _, _, vno, err := parseNotificationBytes([]byte(msg), &wireNames)
		if err == nil && vno < 0 {
			t.Errorf("accepted negative vNo %d from %q", vno, msg)
		}
	})
}

// FuzzDecodeBatch fuzzes the batched-datagram decoder the UDP notifier
// feeds: it must never panic, every decoded primitive must satisfy the
// single-notification parser's invariants, and line accounting must add
// up (decoded + dropped == non-blank lines).
func FuzzDecodeBatch(f *testing.F) {
	f.Add("ECA1|db.u.ev|db.u.tbl|insert|1")
	f.Add("ECA1|e|t|insert|1\nECA1|e|t|insert|2")
	f.Add("ECA1|e|t|insert|1\nECA1|e2|t2|delete|9\nECA1|e3|t3|update|3")
	f.Add("ECA1|e|t|insert|1\n\nECA1|e|t|insert|2\n")
	f.Add("ECA1|e|t|insert|1\ngarbage\nECA1|e|t|insert|2")
	f.Add("\n\n\n")
	f.Add("ECA1|e|t|insert|99999999999999999999999\nECA1|e|t|insert|1")
	f.Add(strings.Repeat("ECA1|e|t|insert|1\n", 50))
	f.Fuzz(func(t *testing.T, datagram string) {
		var prims []led.Primitive
		_, bad := decodeText([]byte(datagram), func(p led.Primitive) { prims = append(prims, p) }, func(error) {})
		lines := 0
		for _, line := range strings.Split(datagram, "\n") {
			if line != "" {
				lines++
			}
		}
		if len(prims)+bad != lines {
			t.Errorf("accounting: %d prims + %d dropped != %d lines",
				len(prims), bad, lines)
		}
		for _, p := range prims {
			if p.VNo < 0 {
				t.Errorf("decoded negative vNo %d", p.VNo)
			}
			if p.Event == "" {
				t.Error("decoded empty event name")
			}
			if strings.Contains(p.Event, "\n") || strings.Contains(p.Table, "\n") {
				t.Error("newline leaked into a decoded field")
			}
		}
	})
}
