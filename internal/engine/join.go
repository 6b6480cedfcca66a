package engine

import (
	"slices"
	"sort"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// joinScan is the nested-loop join: it puts in p.matched every tuple of
// the cartesian product of p's FROM tables that WHERE accepts, in
// FROM-order row-position order. It reads each table's stored rows in
// place (storage.Table.Rows) and keeps them in p.rows, through which the
// matched positions are read.
func (s *Session) joinScan(p *plan) error {
	sources, idx := p.scratch()
	for i, tbl := range p.tables {
		if sources[i] = tbl.Rows(); len(sources[i]) == 0 {
			return nil
		}
	}
	cur := p.cur
	for {
		for i := range cur {
			cur[i] = sources[i][idx[i]]
		}
		ok, err := s.truthy(p.where, cur)
		if err != nil {
			return err
		}
		if ok {
			p.addMatch(idx)
		}
		if !advance(idx, sources) {
			return nil
		}
	}
}

// advance increments the mixed-radix counter idx over the lengths of
// sources; false when it wraps.
func advance(idx []int, sources [][]sqltypes.Row) bool {
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < len(sources[i]) {
			return true
		}
		idx[i] = 0
	}
	return false
}

// joinStep enumerates one frame: a scan of its rows, or — when key is set —
// a probe of the hash index on column col with key's value.
type joinStep struct {
	frame int
	col   int
	key   *expr
}

// joinIndexed answers the join by probing hash indexes in the order of
// p.steps, planJoin's answer: where WHERE has an AND-conjunct f.c = e on an
// indexed column c of frame f, with e a literal, a declared variable or a
// column of a frame enumerated before f. The probe only
// narrows the candidates — the full WHERE still runs on every candidate
// tuple — so its one obligation is that a probe returns every row that
// could match; storage.Pin.Lookup guarantees it. A probed frame's rows are
// read through its pin's slot array (storage.Pin.Rows), which p.rows
// keeps. The tuples are put in p.matched in FROM-order row-position
// order, exactly as joinScan produces them, so ORDER BY ties, DISTINCT
// and GROUP BY see identical input.
//
// joinScan evaluates WHERE on every tuple of the product and this path on
// fewer, so it is taken only when evaluating WHERE can neither fail nor
// have an effect (safeWhere); otherwise an error or a syb_sendmsg call on
// a tuple the probe skips would be lost.
//
// It returns false when the query is not the index's to answer — a key
// whose comparison would convert (character vs numeric), or a probed
// table changed other than by appends while the join ran; the caller then
// runs joinScan, whose answer is the reference. A query with no usable
// conjunct or a WHERE that is not safe has no steps and never gets here.
func (s *Session) joinIndexed(p *plan) bool {
	steps := p.steps
	rows, at := p.scratch()
	if n := len(p.frames); len(p.pins) != n {
		p.pins = make([]storage.Pin, n)
	}
	pins, cur := p.pins, p.cur
	for _, st := range steps {
		if st.key == nil {
			rows[st.frame] = p.tables[st.frame].Rows()
		} else {
			pins[st.frame] = p.tables[st.frame].Pin()
			rows[st.frame] = pins[st.frame].Rows()
		}
	}

	// p.probe is a stack of the positions each level's probe returned: a
	// level appends its own above the levels before it and drops them when
	// it is done.
	p.probe = p.probe[:0]
	var walk func(level int) bool
	walk = func(level int) bool {
		if level == len(steps) {
			match, err := s.truthy(p.where, cur)
			if err != nil {
				return false
			}
			if match {
				p.addMatch(at)
			}
			return true
		}
		st := steps[level]
		f := st.frame
		if st.key == nil {
			for a, row := range rows[f] {
				cur[f], at[f] = row, a
				if !walk(level + 1) {
					return false
				}
			}
			return true
		}
		key, err := s.eval(st.key, cur)
		if err != nil {
			return false
		}
		from, ok := len(p.probe), false
		if p.probe, ok = pins[f].Lookup(st.col, key, p.probe); !ok {
			return false
		}
		for i, to := from, len(p.probe); i < to; i++ {
			a := int(p.probe[i])
			cur[f], at[f] = rows[f][a], a
			if !walk(level + 1) {
				return false
			}
		}
		p.probe = p.probe[:from]
		return true
	}
	if !walk(0) {
		return false
	}
	// Steps in FROM order enumerate the tuples in position order already.
	for i, st := range steps {
		if st.frame != i {
			sort.Sort(tuples{p.matched, len(p.frames)})
			break
		}
	}
	return true
}

// tuples sorts a flat buffer of n-position tuples into position order.
type tuples struct {
	pos []int32
	n   int
}

func (t tuples) Len() int { return len(t.pos) / t.n }

func (t tuples) Less(a, b int) bool {
	return slices.Compare(t.pos[a*t.n:(a+1)*t.n], t.pos[b*t.n:(b+1)*t.n]) < 0
}

func (t tuples) Swap(a, b int) {
	for i := 0; i < t.n; i++ {
		t.pos[a*t.n+i], t.pos[b*t.n+i] = t.pos[b*t.n+i], t.pos[a*t.n+i]
	}
}

// probe is a usable equality conjunct: a probe step for its frame, and the
// frames its key reads.
type probe struct {
	joinStep
	needs uint64
}

// planJoin orders p's frames for joinIndexed: repeatedly probe the first
// frame that has a usable equality conjunct in p's bound WHERE whose other
// side is already bound; otherwise scan the first frame no conjunct can
// probe (or, failing that, the first unplaced frame). nil means no frame
// would be probed.
func (s *Session) planJoin(p *plan) []joinStep {
	frames, tables := p.frames, p.tables
	if len(frames) > 64 || !s.safeWhere(p.where) {
		return nil
	}
	var probes []probe
	for _, c := range conjuncts(p.where, nil) {
		if c.op != opCompare || c.bin != sqlparse.OpEq {
			continue
		}
		for _, side := range [2][2]*expr{{c.args[0], c.args[1]}, {c.args[1], c.args[0]}} {
			col := side[0]
			if col.op != opColumn || !tables[col.frame].IndexedColumn(col.col) {
				continue
			}
			needs, ok := s.keyFrames(side[1])
			if ok && needs&(1<<col.frame) == 0 {
				probes = append(probes, probe{joinStep{frame: col.frame, col: col.col, key: side[1]}, needs})
			}
		}
	}
	if len(probes) == 0 {
		return nil
	}

	var placed uint64
	var steps []joinStep
	probed := false
	for len(steps) < len(frames) {
		next := -1
		for _, p := range probes {
			if placed&(1<<p.frame) == 0 && p.needs&^placed == 0 {
				steps = append(steps, p.joinStep)
				placed |= 1 << p.frame
				probed = true
				next = p.frame
				break
			}
		}
		if next >= 0 {
			continue
		}
		for f := range frames {
			if placed&(1<<f) != 0 {
				continue
			}
			if next < 0 {
				next = f
			}
			if !probeable(f, probes) {
				next = f
				break
			}
		}
		steps = append(steps, joinStep{frame: next})
		placed |= 1 << next
	}
	if !probed {
		return nil
	}
	return steps
}

// conjuncts flattens the top-level AND tree of e.
func conjuncts(e *expr, out []*expr) []*expr {
	if e != nil && e.op == opAnd {
		return conjuncts(e.args[1], conjuncts(e.args[0], out))
	}
	if e == nil {
		return out
	}
	return append(out, e)
}

// keyFrames returns the set of frames a probe key reads. ok is false
// unless e is a literal, a declared variable or a column — the operands
// whose evaluation cannot fail.
func (s *Session) keyFrames(e *expr) (needs uint64, ok bool) {
	switch e.op {
	case opLiteral:
		return 0, true
	case opVar:
		_, declared := s.vars[e.key]
		return 0, declared
	case opColumn:
		return 1 << e.frame, true
	}
	return 0, false
}

// safeWhere reports whether evaluating e can neither fail nor have an
// effect: operands keyFrames accepts, combined by comparisons, LIKE, IN
// lists, IS NULL, AND, OR and NOT — no arithmetic, which can divide by
// zero, and no function call.
func (s *Session) safeWhere(e *expr) bool {
	switch e.op {
	case opAnd, opOr, opLike, opCompare, opNot, opIsNull, opIn:
		for _, a := range e.args {
			if !s.safeWhere(a) {
				return false
			}
		}
		return true
	}
	_, ok := s.keyFrames(e)
	return ok
}

func probeable(f int, probes []probe) bool {
	for _, p := range probes {
		if p.frame == f {
			return true
		}
	}
	return false
}
