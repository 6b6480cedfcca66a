package agent

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/led"
)

// TestDeliverBatchMultiLine: one datagram carrying several newline-separated
// notifications — for two independent events plus one malformed line — must
// deliver every well-formed occurrence and count the bad one dropped.
func TestDeliverBatchMultiLine(t *testing.T) {
	r := newChaosRig(t, nil, nil)
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t1 on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("create trigger t2 on audit for insert event addAud as print 'y'"); err != nil {
		t.Fatal(err)
	}
	stk, stkTbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"
	aud, audTbl := "sentineldb.sharma.addAud", "sentineldb.sharma.audit"

	datagram := strings.Join([]string{
		notifMsg(stk, stkTbl, "insert", 1),
		notifMsg(aud, audTbl, "insert", 1),
		"ECA1|not|enough", // malformed: dropped, not fatal to the batch
		notifMsg(stk, stkTbl, "insert", 2),
		"", // blank lines (trailing newline) are ignored
	}, "\n")
	r.agent.DeliverBatchBytes([]byte(datagram))
	r.agent.WaitActions()

	var got []string
	for i := 0; i < 3; i++ {
		res := waitAction(t, r.agent)
		if res.Err != nil {
			t.Fatalf("action %d: %v", i, res.Err)
		}
		c := res.Occ.Constituents[0]
		got = append(got, fmt.Sprintf("%s:%d", c.Event, c.VNo))
	}
	want := map[string]bool{stk + ":1": true, stk + ":2": true, aud + ":1": true}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected occurrence %s", g)
		}
		delete(want, g)
	}
	for miss := range want {
		t.Errorf("missing occurrence %s", miss)
	}

	st := r.agent.Stats()
	if st.NotificationsReceived != 4 {
		t.Errorf("NotificationsReceived = %d, want 4", st.NotificationsReceived)
	}
	if st.NotificationsDropped != 1 {
		t.Errorf("NotificationsDropped = %d, want 1", st.NotificationsDropped)
	}
}

// TestDeliverBatchAfterClose: a batch that arrives after Close (a datagram
// in flight across shutdown, or an embedding program's late call) behaves
// like a late Deliver — counted, its firings failed fast into the
// dead-letter queue against the closed upstream — and neither panics nor
// leaves anything for a following Close to wait out.
func TestDeliverBatchAfterClose(t *testing.T) {
	r := newChaosRig(t, nil, func(c *Config) { c.DrainTimeout = 5 * time.Second })
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	ev, tbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"
	// One action before Close, so Close has a parked action worker to stop
	// and the late firings need a new one.
	r.agent.Deliver(notifMsg(ev, tbl, "insert", 1))
	if res := waitAction(t, r.agent); res.Err != nil {
		t.Fatal(res.Err)
	}
	r.agent.Close()

	r.agent.DeliverBatchBytes([]byte(notifMsg(ev, tbl, "insert", 2) + "\n" + notifMsg(ev, tbl, "insert", 3)))
	r.agent.DeliverBatchBytes(mustEncode(t, []led.Primitive{{Event: ev, Table: tbl, Op: "insert", VNo: 4}}))
	r.agent.WaitActions()
	st := r.agent.Stats()
	if st.NotificationsReceived != 4 || st.NotificationsDelivered != 4 {
		t.Errorf("late batches: received %d delivered %d, want 4/4", st.NotificationsReceived, st.NotificationsDelivered)
	}
	if st.ActionsDeadLettered != 3 || len(r.agent.DeadLetters()) != 3 {
		t.Errorf("late firings: dead-lettered %d (queue %d), want 3", st.ActionsDeadLettered, len(r.agent.DeadLetters()))
	}
	start := time.Now()
	r.agent.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Close after a late batch took %v; nothing should be left to drain", elapsed)
	}
}
