package led

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/snoop"
)

// TestStressConcurrentSignalsUnderChurn hammers the LED from many
// goroutines while admin churn defines and drops a composite spanning the
// rule sets, then audits a delivery ledger for lost or duplicated
// firings. Each of K independent rule sets is `e1 ^ e2` under CHRONICLE
// context, so signalling each primitive exactly once per round must fire
// each rule exactly once per round — any locking or subscription-pruning
// bug shows up as a missing or double entry (and -race catches
// unsynchronized access outright).
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

	// Churn goroutine: repeatedly defines a "bridge" composite spanning two
	// rule sets and drops it again, while signal goroutines are running.
	// The bridge has its own primitive terminator so it never fires and
	// never consumes s*_a occurrences:
	// AND initiated by s0_a ^ s6_a cannot complete without both, and we
	// drop it between rounds — but to be fully inert we bridge over
	// dedicated primitives instead.
	if err := l.DefinePrimitive("bridge_x"); err != nil {
		t.Fatal(err)
	}
	if err := l.DefinePrimitive("bridge_y"); err != nil {
		t.Fatal(err)
	}

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
			// Link two random sets through an inert composite.
			i, j := rng.Intn(sets), rng.Intn(sets)
			if i == j {
				continue
			}
			expr := fmt.Sprintf("(s%d_a ; bridge_x) ; (s%d_a ; bridge_y)", i, j)
			e, err := snoop.Parse(expr)
			if err != nil {
				panic(err)
			}
			if err := l.DefineComposite("bridge_comp", e); err != nil {
				panic(err)
			}
			churn++
			if err := l.DropEvent("bridge_comp"); err != nil {
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
	l.Wait()

	if churn == 0 {
		t.Error("churn goroutine never defined/dropped the bridge; stress is vacuous")
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

// TestDetachedBurstBounded is the regression test for the unbounded
// goroutine spawn: a burst of detached firings must be drained by at most
// the pool's worker cap, every action must run exactly once, and
// Wait (the shutdown drain) must complete.
func TestDetachedBurstBounded(t *testing.T) {
	const (
		workers = 4
		burst   = 500
	)
	clock := NewManualClock(t0)
	l := New(clock)
	l.pool.maxWorkers = workers
	if err := l.DefinePrimitive("ev"); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		seen  = make(map[int]int)
		calls int
	)
	if err := l.AddRule(&Rule{
		Name:     "r",
		Event:    "ev",
		Context:  Recent,
		Coupling: Detached,
		Action: func(o *Occ) {
			mu.Lock()
			seen[o.Constituents[0].VNo]++
			calls++
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}

	at := t0
	for i := 1; i <= burst; i++ {
		at = at.Add(time.Millisecond)
		l.Signal(Primitive{Event: "ev", Table: "t", Op: "insert", VNo: i, At: at})
	}
	// Shutdown drain under a burst: must terminate with everything run.
	l.Wait()

	mu.Lock()
	defer mu.Unlock()
	if calls != burst {
		t.Fatalf("detached actions ran %d times, want %d", calls, burst)
	}
	for i := 1; i <= burst; i++ {
		if seen[i] != 1 {
			t.Errorf("vno %d ran %d times, want 1", i, seen[i])
		}
	}
	// Worker retirement is asynchronous (a worker marks its last firing
	// done before it re-checks the queue and exits), so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		q, w, peak := l.DetachedStats()
		if q == 0 && w == 0 && peak <= workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool after drain: queued=%d workers=%d peak=%d, want 0/0/<=%d",
				q, w, peak, workers)
		}
		time.Sleep(time.Millisecond)
	}
}
