package led

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestStressConcurrentSignalsUnderChurn hammers the LED from many
// goroutines while admin churn adds and drops rules on composites spanning
// the rule sets, then audits a delivery ledger for lost or duplicated
// firings. Each of K independent rule sets is `e1 ^ e2` under CHRONICLE
// context, so signalling each primitive exactly once per round must fire
// each rule exactly once per round — any locking or subscription bug shows
// up as a missing or double entry (and -race catches unsynchronized access
// outright).
func TestStressConcurrentSignalsUnderChurn(t *testing.T) {
	const (
		sets   = 8
		rounds = 60
	)
	clock := NewManualClock(t0)
	l := New(clock)

	type ledgerKey struct {
		set, vno int
	}
	var (
		ledgerMu sync.Mutex
		ledger   = make(map[ledgerKey]int)
	)

	for k := 0; k < sets; k++ {
		a := fmt.Sprintf("s%d_a", k)
		b := fmt.Sprintf("s%d_b", k)
		for _, p := range []string{a, b} {
			if err := l.DefinePrimitive(p); err != nil {
				t.Fatal(err)
			}
		}
		expr := fmt.Sprintf("%s ^ %s", a, b)
		defComposite(t, &harness{led: l}, fmt.Sprintf("s%d_comp", k), expr)
		set := k
		if err := l.AddRule(&Rule{
			Name:    fmt.Sprintf("s%d_r", k),
			Event:   fmt.Sprintf("s%d_comp", k),
			Context: Chronicle,
			Action: func(o *Occ) {
				// Under CHRONICLE the pair is consumed oldest-first, so
				// both constituents carry the same per-round VNo.
				vno := o.Constituents[0].VNo
				ledgerMu.Lock()
				ledger[ledgerKey{set, vno}]++
				ledgerMu.Unlock()
			},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Bridge composites, defined once, each spanning two rule sets over
	// dedicated primitives that are never signalled, so they never fire
	// and never consume s*_a occurrences. The churn goroutine attaches and
	// drops a rule on a random bridge in a random context while the signal
	// goroutines run: the detector work CREATE and DROP TRIGGER do.
	for _, p := range []string{"bridge_x", "bridge_y"} {
		if err := l.DefinePrimitive(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sets; i++ {
		expr := fmt.Sprintf("(s%d_a ; bridge_x) ; (s%d_a ; bridge_y)", i, (i+1)%sets)
		defComposite(t, &harness{led: l}, fmt.Sprintf("bridge%d", i), expr)
	}
	contexts := []Context{Recent, Chronicle, Continuous, Cumulative}

	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		churn int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := l.AddRule(&Rule{
				Name:    "bridge_r",
				Event:   fmt.Sprintf("bridge%d", rng.Intn(sets)),
				Context: contexts[rng.Intn(len(contexts))],
				Action: func(*Occ) {
					// A bridge firing is a phantom ledger entry.
					ledgerMu.Lock()
					ledger[ledgerKey{-1, 0}]++
					ledgerMu.Unlock()
				},
			})
			if err != nil {
				panic(err)
			}
			churn++
			if err := l.DropRule("bridge_r"); err != nil {
				panic(err)
			}
		}
	}()

	// One signal goroutine per rule set; round r signals a then b with
	// VNo r. The LED serializes every Signal and the admin churn on l.mu.
	for k := 0; k < sets; k++ {
		wg.Add(1)
		go func(set int) {
			defer wg.Done()
			a := fmt.Sprintf("s%d_a", set)
			b := fmt.Sprintf("s%d_b", set)
			at := t0
			for r := 1; r <= rounds; r++ {
				at = at.Add(time.Millisecond)
				l.Signal(Primitive{Event: a, Table: "t", Op: "insert", VNo: r, At: at})
				at = at.Add(time.Millisecond)
				l.Signal(Primitive{Event: b, Table: "t", Op: "insert", VNo: r, At: at})
			}
		}(k)
	}

	// Let signallers finish, then stop churn.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Signallers exit on their own; churn needs the stop signal once
		// they are done. Poll the ledger until full or time out.
		deadline := time.After(30 * time.Second)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-deadline:
				close(stop)
				return
			case <-tick.C:
				ledgerMu.Lock()
				n := len(ledger)
				ledgerMu.Unlock()
				if n >= sets*rounds {
					close(stop)
					return
				}
			}
		}
	}()
	<-done

	if churn == 0 {
		t.Error("churn goroutine never added/dropped a bridge rule; stress is vacuous")
	}
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	for k := 0; k < sets; k++ {
		for r := 1; r <= rounds; r++ {
			got := ledger[ledgerKey{k, r}]
			if got != 1 {
				t.Errorf("set %d round %d: fired %d times, want exactly 1", k, r, got)
			}
		}
	}
	if extra := len(ledger) - sets*rounds; extra > 0 {
		t.Errorf("%d unexpected ledger entries (phantom firings)", extra)
	}
}
