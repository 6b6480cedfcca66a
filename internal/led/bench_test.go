package led

import (
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/snoop"
)

// Detection cost per Snoop operator and per parameter context, the two
// tables EXPERIMENTS.md reports. Run with:
//
//	go test -run '^$' -bench 'BenchmarkLED(Operator|Context)' -benchmem ./internal/led

func BenchmarkLEDOperator(b *testing.B) {
	ops := []struct{ name, expr string }{
		{"OR", "e1 | e2"},
		{"AND", "e1 ^ e2"},
		{"SEQ", "e1 ; e2"},
		{"NOT", "NOT(e1, e3, e2)"},
		{"A", "A(e1, e2, e3)"},
		{"Astar", "A*(e1, e2, e3)"},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			l := New(NewManualClock(time.Unix(0, 0)))
			for _, p := range []string{"e1", "e2", "e3"} {
				if err := l.DefinePrimitive(p); err != nil {
					b.Fatal(err)
				}
			}
			expr, err := snoop.Parse(op.expr)
			if err != nil {
				b.Fatal(err)
			}
			if err := l.DefineComposite("c", expr); err != nil {
				b.Fatal(err)
			}
			if err := l.AddRule(&Rule{Name: "r", Event: "c", Context: Chronicle,
				Action: func(*Occ) {}}); err != nil {
				b.Fatal(err)
			}
			events := []string{"e1", "e2", "e3"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Signal(Primitive{Event: events[i%3], VNo: i, At: time.Unix(0, int64(i))})
			}
		})
	}
}

func BenchmarkLEDContext(b *testing.B) {
	for _, ctx := range []Context{Recent, Chronicle, Continuous, Cumulative} {
		b.Run(ctx.String(), func(b *testing.B) {
			l := New(NewManualClock(time.Unix(0, 0)))
			_ = l.DefinePrimitive("e1")
			_ = l.DefinePrimitive("e2")
			expr, _ := snoop.Parse("e1 ^ e2")
			_ = l.DefineComposite("c", expr)
			_ = l.AddRule(&Rule{Name: "r", Event: "c", Context: ctx,
				Action: func(*Occ) {}})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := "e1"
				if i%2 == 1 {
					ev = "e2"
				}
				l.Signal(Primitive{Event: ev, VNo: i, At: time.Unix(0, int64(i))})
			}
		})
	}
}
