package engine

import (
	"sort"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// joinScan is the nested-loop join: every tuple of the cartesian product of
// the FROM tables, in FROM-order row-position order, filtered by WHERE.
func (s *Session) joinScan(where sqlparse.Expr, frames []*frame, tables []*storage.Table) ([]sourceRow, error) {
	sources := make([][]sqltypes.Row, len(tables))
	sourceLens := make([]int, len(tables))
	for i, tbl := range tables {
		sources[i] = tbl.Rows()
		sourceLens[i] = len(sources[i])
	}
	var matched []sourceRow
	idx := make([]int, len(sources))
	if anyEmpty(sourceLens) {
		return nil, nil
	}
	for {
		for i := range frames {
			frames[i].row = sources[i][idx[i]]
		}
		ok, err := s.truthy(where, frames)
		if err != nil {
			return nil, err
		}
		if ok {
			sr := make(sourceRow, len(sources))
			for i := range sources {
				sr[i] = sources[i][idx[i]]
			}
			matched = append(matched, sr)
		}
		if !advance(idx, sourceLens) {
			return matched, nil
		}
	}
}

// joinStep enumerates one frame: a scan of its rows, or — when key is set —
// a probe of the hash index on column col with key's value.
type joinStep struct {
	frame int
	col   int
	key   sqlparse.Expr
}

// joinIndexed answers the join by probing hash indexes where WHERE has an
// AND-conjunct f.c = e on an indexed column c of frame f, with e a literal,
// a variable or a column of a frame enumerated before f. The probe only
// narrows the candidates — the full WHERE still runs on every candidate
// tuple — so its one obligation is that a probe returns every row that
// could match; storage.Pin.Lookup guarantees it. The tuples are returned
// in FROM-order row-position order, exactly as joinScan produces them, so
// ORDER BY ties, DISTINCT and GROUP BY see identical input.
//
// joinScan evaluates WHERE on every tuple of the product and this path on
// fewer, so it is taken only when evaluating WHERE can neither fail nor
// have an effect (safeWhere); otherwise an error or a syb_sendmsg call on
// a tuple the probe skips would be lost.
//
// ok is false when the query is not the index's to answer — no usable
// conjunct, a WHERE that is not safe, a key whose comparison would convert
// (character vs numeric), or a probed table changed other than by appends
// while the join ran; the caller then runs joinScan, whose answer is the
// reference.
func (s *Session) joinIndexed(where sqlparse.Expr, frames []*frame, tables []*storage.Table) (matched []sourceRow, ok bool) {
	steps := s.planJoin(where, frames, tables)
	if steps == nil {
		return nil, false
	}
	n := len(frames)
	scans := make([][]sqltypes.Row, n)
	pins := make([]storage.Pin, n)
	for _, st := range steps {
		if st.key == nil {
			scans[st.frame] = tables[st.frame].Rows()
		} else {
			pins[st.frame] = tables[st.frame].Pin()
		}
	}

	type hit struct {
		src sourceRow
		pos []int
	}
	var hits []hit
	cur := make(sourceRow, n)
	pos := make([]int, n)
	bind := func(f int, row sqltypes.Row, at int) {
		cur[f], pos[f] = row, at
		frames[f].row = row
	}
	var walk func(level int) bool
	walk = func(level int) bool {
		if level == len(steps) {
			match, err := s.truthy(where, frames)
			if err != nil {
				return false
			}
			if match {
				hits = append(hits, hit{src: append(sourceRow(nil), cur...), pos: append([]int(nil), pos...)})
			}
			return true
		}
		st := steps[level]
		if st.key == nil {
			for at, row := range scans[st.frame] {
				bind(st.frame, row, at)
				if !walk(level + 1) {
					return false
				}
			}
			return true
		}
		key, err := s.eval(st.key, frames)
		if err != nil {
			return false
		}
		rows, at, ok := pins[st.frame].Lookup(st.col, key)
		if !ok {
			return false
		}
		for i, row := range rows {
			bind(st.frame, row, at[i])
			if !walk(level + 1) {
				return false
			}
		}
		return true
	}
	if !walk(0) {
		return nil, false
	}

	sort.Slice(hits, func(a, b int) bool {
		pa, pb := hits[a].pos, hits[b].pos
		for i := range pa {
			if pa[i] != pb[i] {
				return pa[i] < pb[i]
			}
		}
		return false
	})
	matched = make([]sourceRow, len(hits))
	for i, h := range hits {
		matched[i] = h.src
	}
	return matched, true
}

// probe is a usable equality conjunct: a probe step for its frame, and the
// frames its key reads.
type probe struct {
	joinStep
	needs uint64
}

// planJoin orders the frames for joinIndexed: repeatedly probe the first
// frame that has a usable equality conjunct whose other side is already
// bound; otherwise scan the first frame no conjunct can probe (or, failing
// that, the first unplaced frame). nil means no frame would be probed.
func (s *Session) planJoin(where sqlparse.Expr, frames []*frame, tables []*storage.Table) []joinStep {
	if len(frames) > 64 || !s.safeWhere(where, frames) {
		return nil
	}
	var probes []probe
	for _, c := range conjuncts(where, nil) {
		eq, isEq := c.(*sqlparse.BinaryExpr)
		if !isEq || eq.Op != sqlparse.OpEq {
			continue
		}
		for _, side := range [2][2]sqlparse.Expr{{eq.L, eq.R}, {eq.R, eq.L}} {
			f, col, isCol := resolveColumn(side[0], frames)
			if !isCol || !tables[f].IndexedColumn(col) {
				continue
			}
			needs, ok := s.keyFrames(side[1], frames)
			if ok && needs&(1<<f) == 0 {
				probes = append(probes, probe{joinStep{frame: f, col: col, key: side[1]}, needs})
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
func conjuncts(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == sqlparse.OpAnd {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	if e == nil {
		return out
	}
	return append(out, e)
}

// resolveColumn resolves e, when it is a column reference, to its frame and
// column position, by the rules of evalColumnRef.
func resolveColumn(e sqlparse.Expr, frames []*frame) (f, col int, ok bool) {
	cr, isRef := e.(*sqlparse.ColumnRef)
	if !isRef || strings.HasPrefix(cr.Name, "@") {
		return 0, 0, false
	}
	if len(cr.Qualifier.Parts) > 0 {
		q := strings.ToLower(cr.Qualifier.String())
		for i, fr := range frames {
			if fr.matches(q) {
				col = fr.schema.Index(cr.Name)
				return i, col, col >= 0
			}
		}
		return 0, 0, false
	}
	f = -1
	for i, fr := range frames {
		if c := fr.schema.Index(cr.Name); c >= 0 {
			if f >= 0 {
				return 0, 0, false // ambiguous
			}
			f, col = i, c
		}
	}
	return f, col, f >= 0
}

// keyFrames returns the set of frames a probe key reads. ok is false
// unless e is a literal, a declared variable or a column that resolves —
// the operands whose evaluation cannot fail.
func (s *Session) keyFrames(e sqlparse.Expr, frames []*frame) (needs uint64, ok bool) {
	switch e := e.(type) {
	case *sqlparse.Literal:
		return 0, true
	case *sqlparse.ColumnRef:
		if strings.HasPrefix(e.Name, "@") {
			_, declared := s.vars[strings.ToLower(e.Name)]
			return 0, declared
		}
		if f, _, ok := resolveColumn(e, frames); ok {
			return 1 << f, true
		}
	}
	return 0, false
}

// safeWhere reports whether evaluating e can neither fail nor have an
// effect: operands keyFrames accepts, combined by comparisons, LIKE, IN
// lists, IS NULL, AND, OR and NOT — no arithmetic, which can divide by
// zero, and no function call.
func (s *Session) safeWhere(e sqlparse.Expr, frames []*frame) bool {
	switch e := e.(type) {
	case *sqlparse.BinaryExpr:
		switch e.Op {
		case sqlparse.OpAnd, sqlparse.OpOr, sqlparse.OpLike, sqlparse.OpEq, sqlparse.OpNe,
			sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			return s.safeWhere(e.L, frames) && s.safeWhere(e.R, frames)
		}
		return false
	case *sqlparse.UnaryExpr:
		return e.Op == "not" && s.safeWhere(e.E, frames)
	case *sqlparse.IsNull:
		return s.safeWhere(e.E, frames)
	case *sqlparse.InList:
		for _, item := range e.List {
			if !s.safeWhere(item, frames) {
				return false
			}
		}
		return s.safeWhere(e.E, frames)
	}
	_, ok := s.keyFrames(e, frames)
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
