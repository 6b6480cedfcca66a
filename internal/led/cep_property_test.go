package led

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// Property-based window test (ISSUE 8 satellite): for random window sizes,
// slides, and occurrence timestamps, the emitted window occurrences after
// an arbitrary clock advance must equal a brute-force filter of the full
// signal history — one occurrence per slide-grid boundary whose half-open
// content [T-size, T) is non-empty, carrying exactly that content plus the
// boundary tick. This checks the production detector's lazy timer arming,
// ring eviction, and disarm/re-arm cycles against the definition, with no
// reliance on the detector's own code paths.
func TestWindowPropertyRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			size := time.Duration(1+rng.Intn(8)) * time.Second
			slide := time.Duration(1+rng.Intn(8)) * time.Second
			if tumble := rng.Intn(3) == 0; tumble {
				slide = size
			}

			clock := NewManualClock(t0)
			l := New(clock)
			if err := l.DefinePrimitive("db.u.e"); err != nil {
				t.Fatal(err)
			}
			expr := fmt.Sprintf("WINDOW(db.u.e, [%d sec], SLIDE [%d sec])",
				size/time.Second, slide/time.Second)
			defComposite(t, &harness{led: l}, "db.u.w", expr)
			var got []string
			if err := l.AddRule(&Rule{
				Name: "db.u.r", Event: "db.u.w", Context: Chronicle,
				Coupling: Immediate,
				Action:   func(o *Occ) { got = append(got, canonOcc(o)) },
			}); err != nil {
				t.Fatal(err)
			}

			// Random history: bursts and quiet gaps, sub-second offsets, so
			// signals fall on and off the boundary grid and the ring
			// disarms and re-arms between bursts.
			var hist []Primitive
			for i, count := 0, 5+rng.Intn(25); i < count; i++ {
				gap := time.Duration(1+rng.Intn(3000)) * time.Millisecond
				if rng.Intn(5) == 0 {
					gap += time.Duration(rng.Intn(3)) * size // quiet period
				}
				clock.Advance(gap)
				p := Primitive{Event: "db.u.e", Table: "db.u.t", Op: "insert",
					VNo: i + 1, At: clock.Now()}
				l.Signal(p)
				hist = append(hist, p)
			}
			// Arbitrary final advance: flush every boundary whose window
			// can still be non-empty, plus a random tail.
			clock.Advance(size + slide + time.Duration(rng.Intn(5000))*time.Millisecond)
			l.Wait()

			want := bruteForceWindows(hist, size, slide, clock.Now())
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("size=%v slide=%v: window stream diverges from brute force\nwant:\n  %s\ngot:\n  %s",
					size, slide, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
			}
		})
	}
}

// bruteForceWindows recomputes the expected occurrence stream from first
// principles: every multiple of slide (the Unix-epoch grid) in range, with
// the full history filtered into [T-size, T).
func bruteForceWindows(hist []Primitive, size, slide time.Duration, until time.Time) []string {
	if len(hist) == 0 {
		return nil
	}
	var out []string
	first := boundaryAfter(hist[0].At, slide)
	for at := first; !at.After(until); at = at.Add(slide) {
		lo := at.Add(-size)
		var content []Primitive
		for _, p := range hist {
			if !p.At.Before(lo) && p.At.Before(at) {
				content = append(content, p)
			}
		}
		if len(content) == 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "db.u.w/%s@%d[", Chronicle, at.UnixNano())
		for i, c := range content {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%s:%d@%d", c.Event, c.Op, c.VNo, c.At.UnixNano())
		}
		fmt.Fprintf(&b, " db.u.w:tick:0@%d]", at.UnixNano())
		out = append(out, b.String())
	}
	return out
}
