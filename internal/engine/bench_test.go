package engine

import (
	"fmt"
	"testing"
)

// BenchmarkStatementMix times the engine alone on the statements the
// end-to-end benchmark drives through it, each on a warm session:
//
//   - passthrough: the four shapes of the passthrough workload in turn, a
//     keyed SELECT, a keyed UPDATE and an INSERT/DELETE pair, on a 64-row
//     table;
//   - update_4096: a keyed UPDATE of one row of a 4 096-row table, the
//     statement that pays for a copy-on-write slot array per table size;
//   - aggregate_4096: a count(*), a sum and a four-group GROUP BY in turn
//     over a 4 096-row table, the shape of a benchmark's row-count checks;
//   - trigger_firing: an insert that fires the Figure 11 trigger;
//   - context_action: the §5.6 script of a rule whose action joins
//     stock.inserted (Figure 14).
//
// Profile the per-row evaluation with
//
//	go test -run '^$' -bench StatementMix/passthrough -cpuprofile cpu.out ./internal/engine
func BenchmarkStatementMix(b *testing.B) {
	b.Run("passthrough", func(b *testing.B) {
		s, _ := newTestSession(b)
		mustExec(b, s, "create table quotes (symbol varchar(10), price float null)")
		for i := 0; i < 64; i++ {
			mustExec(b, s, fmt.Sprintf("insert quotes values ('Q%02d', %d.25)", i, 100+i))
		}
		const n = 256
		var stmts [n]string
		for i := range stmts {
			key := fmt.Sprintf("Q%02d", (i*37)%64)
			switch i % 4 {
			case 0:
				stmts[i] = "select price from quotes where symbol = '" + key + "'"
			case 1:
				stmts[i] = fmt.Sprintf("update quotes set price = %d.5 where symbol = '%s'", 90+i%20, key)
			case 2:
				stmts[i] = fmt.Sprintf("insert quotes values ('T%d', %d.75)", i, 80+i%20)
			default:
				stmts[i] = fmt.Sprintf("delete quotes where symbol = 'T%d'", i-1)
			}
		}
		for _, sql := range stmts {
			mustExec(b, s, sql)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecBatch(stmts[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update_4096", func(b *testing.B) {
		s, _ := newTestSession(b)
		mustExec(b, s, "create table quotes (symbol varchar(10), price float null)")
		const rows = 4096
		for i := 0; i < rows; i++ {
			mustExec(b, s, fmt.Sprintf("insert quotes values ('Q%04d', %d.25)", i, 100+i%100))
		}
		var stmts [256]string
		for i := range stmts {
			stmts[i] = fmt.Sprintf("update quotes set price = %d.5 where symbol = 'Q%04d'", 90+i%20, (i*37)%rows)
		}
		mustExec(b, s, stmts[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecBatch(stmts[i%len(stmts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aggregate_4096", func(b *testing.B) {
		s, _ := newTestSession(b)
		mustExec(b, s, "create table quotes (symbol varchar(10), grp int, price float null)")
		const rows = 4096
		for i := 0; i < rows; i++ {
			mustExec(b, s, fmt.Sprintf("insert quotes values ('Q%04d', %d, %d.25)", i, i%4, 100+i%100))
		}
		stmts := [...]string{
			"select count(*) from quotes",
			"select sum(price) from quotes where price > 150",
			"select grp, count(*), max(price) from quotes group by grp",
		}
		for _, sql := range stmts {
			mustExec(b, s, sql)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecBatch(stmts[i%len(stmts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trigger_firing", func(b *testing.B) {
		s := figure11Setup(b)
		var batches [256]string
		for i := range batches {
			batches[i] = fmt.Sprintf("insert stock values ('IBM', %d)", i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecBatch(batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("context_action", func(b *testing.B) {
		const n = 64
		s, scripts := contextActionSetup(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.ExecScript(scripts[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
