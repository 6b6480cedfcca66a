package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// execSelectStmt runs a SELECT, materializing the result. SELECT ... INTO
// creates the target table from the result (the Sybase idiom the agent's
// code generator uses to create shadow tables).
func (s *Session) execSelectStmt(st *sqlparse.Select) (*sqltypes.ResultSet, error) {
	rs, err := s.runSelect(st)
	if err != nil {
		return nil, err
	}
	if st.Into == nil {
		return rs, nil
	}
	db, err := s.database(st.Into.Database())
	if err != nil {
		return nil, err
	}
	schema := rs.Schema.Clone()
	// Result columns of a SELECT INTO are nullable unless they came from a
	// NOT NULL base column; we conservatively make them nullable, which is
	// what the agent's shadow tables need (vNo starts NULL-filled).
	for i := range schema.Columns {
		schema.Columns[i].Nullable = true
	}
	tbl, err := db.CreateTable(s.ownerFor(*st.Into), st.Into.Name(), schema)
	if err != nil {
		return nil, err
	}
	s.txnSaveTable(tbl)
	if _, err := tbl.InsertMany(rs.Rows); err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{RowsAffected: len(rs.Rows)}, nil
}

// sourceRow is one joined row across all FROM frames.
type sourceRow []sqltypes.Row

// runSelect evaluates the SELECT and returns the materialized rows.
func (s *Session) runSelect(st *sqlparse.Select) (*sqltypes.ResultSet, error) {
	p := s.planFor(st)
	defer p.release()
	// FROM-less SELECT: evaluate items once against no frames.
	if len(st.From) == 0 {
		return s.selectWithoutFrom(st, p)
	}

	fits, err := s.resolve(p, st.From)
	if err != nil {
		return nil, err
	}
	if !fits {
		if err := s.planSelect(st, p); err != nil {
			return nil, err
		}
	}

	// Probe hash indexes where the plan found a usable conjunct;
	// otherwise (and always when no FROM table has an index) the
	// nested-loop cartesian product. Either leaves the matched tuples in
	// p.matched, as row positions.
	if p.steps == nil || !s.joinIndexed(p) {
		if err := s.joinScan(p); err != nil {
			return nil, err
		}
	}
	if p.grouped {
		return s.selectGrouped(st, p)
	}
	return s.selectPlain(st, p)
}

// planSelect builds p for st against the FROM tables p.tables holds:
// frames, the bound WHERE, items, GROUP BY keys and HAVING (binding them
// reports an unknown column even when zero rows match, as the original
// server does at compile time), the join plan, the projection list and
// the ORDER BY keys.
func (s *Session) planSelect(st *sqlparse.Select, p *plan) error {
	s.rebuild(p, st.From)
	var err error
	if p.where, err = bind(st.Where, p.frames); err != nil {
		return err
	}
	items := make([]*expr, len(st.Items))
	for i, item := range st.Items {
		if !item.Star {
			if items[i], err = bind(item.Expr, p.frames); err != nil {
				return err
			}
		}
	}
	if p.groupBy, err = bindAll(st.GroupBy, p.frames); err != nil {
		return err
	}
	if p.having, err = bind(st.Having, p.frames); err != nil {
		return err
	}
	for _, l := range p.refs {
		if l.nidx > 0 && p.where != nil {
			p.vars = s.varsOf(p.where, nil)
			p.steps = s.planJoin(p)
			break
		}
	}
	p.grouped = len(st.GroupBy) > 0 || hasAggregate(items) || (p.having != nil && p.having.agg)
	if p.grouped {
		p.projs = itemProjections(st.Items, items)
	} else {
		p.projs, p.projErr = buildProjections(st, p.frames, items)
	}
	p.order = orderKeys(st, p)
	p.built = true
	return nil
}

func (s *Session) selectWithoutFrom(st *sqlparse.Select, p *plan) (*sqltypes.ResultSet, error) {
	if !p.built {
		items, _ := bindAll(itemExprs(st.Items), nil)
		p.projs, p.built = itemProjections(st.Items, items), true
	}
	for _, pr := range p.projs {
		if pr.expr != nil && pr.expr.agg {
			return nil, fmt.Errorf("aggregate without FROM")
		}
	}
	if st.Where != nil || len(st.GroupBy) > 0 || st.Having != nil || len(st.OrderBy) > 0 {
		return nil, fmt.Errorf("WHERE/GROUP/HAVING/ORDER require FROM")
	}
	row := make(sqltypes.Row, 0, len(st.Items))
	for i, item := range st.Items {
		if item.Star {
			return nil, fmt.Errorf("SELECT * requires FROM")
		}
		v, err := s.eval(p.projs[i].expr, nil)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return &sqltypes.ResultSet{Schema: p.outputSchema(row), Rows: []sqltypes.Row{row}}, nil
}

// itemExprs returns the expression of each select item, nil for a star.
func itemExprs(items []sqlparse.SelectItem) []sqlparse.Expr {
	out := make([]sqlparse.Expr, len(items))
	for i, item := range items {
		out[i] = item.Expr
	}
	return out
}

// projection describes the output columns: either an expansion of a frame's
// columns (star) or a single expression.
type projection struct {
	frameIdx int // for star columns
	colIdx   int
	expr     *expr // nil for star columns
	name     string
}

// buildProjections expands the select list over frames; items holds each
// item's bound expression.
func buildProjections(st *sqlparse.Select, frames []*frame, items []*expr) ([]projection, error) {
	var projs []projection
	for i, item := range st.Items {
		switch {
		case item.Star && len(item.StarTable.Parts) == 0:
			for fi, f := range frames {
				for ci, col := range f.schema.Columns {
					projs = append(projs, projection{frameIdx: fi, colIdx: ci, name: col.Name})
				}
			}
		case item.Star:
			found := false
			for fi, f := range frames {
				if !f.matches(item.StarTable.Parts) {
					continue
				}
				for ci, col := range f.schema.Columns {
					projs = append(projs, projection{frameIdx: fi, colIdx: ci, name: col.Name})
				}
				found = true
				break
			}
			if !found {
				return nil, fmt.Errorf("unknown table or alias %q in select list", item.StarTable)
			}
		default:
			projs = append(projs, projection{expr: items[i], name: itemName(item, i)})
		}
	}
	return projs, nil
}

// itemProjections is the projection list of a select whose items are all
// expressions (bound as items): one that groups or has no FROM.
func itemProjections(items []sqlparse.SelectItem, bound []*expr) []projection {
	projs := make([]projection, len(items))
	for i, item := range items {
		projs[i] = projection{expr: bound[i], name: itemName(item, i)}
	}
	return projs
}

// projIndex returns the position of the first output column named name,
// or -1.
func projIndex(projs []projection, name string) int {
	for i, p := range projs {
		if strings.EqualFold(p.name, name) {
			return i
		}
	}
	return -1
}

func itemName(item sqlparse.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
		return cr.Name
	}
	return fmt.Sprintf("col%d", i+1)
}

func typeOf(v sqltypes.Value) sqltypes.Type {
	switch v.Kind() {
	case sqltypes.KindInt:
		return sqltypes.Int
	case sqltypes.KindFloat:
		return sqltypes.Float
	case sqltypes.KindBit:
		return sqltypes.Bit
	case sqltypes.KindChar, sqltypes.KindVarChar:
		return sqltypes.VarChar(255)
	case sqltypes.KindText:
		return sqltypes.Text
	case sqltypes.KindDateTime:
		return sqltypes.DateTime
	default:
		return sqltypes.VarChar(255)
	}
}

// projectionSchema infers the output schema: star columns copy the source
// column type; expression columns are typed from their first value (or
// varchar when the result is empty).
func projectionSchema(projs []projection, frames []*frame, firstRow sqltypes.Row) *sqltypes.Schema {
	schema := &sqltypes.Schema{}
	for i, p := range projs {
		var col sqltypes.Column
		if p.expr == nil {
			src := frames[p.frameIdx].schema.Column(p.colIdx)
			col = sqltypes.Column{Name: p.name, Type: src.Type, Nullable: true}
		} else {
			col = sqltypes.Column{Name: p.name, Type: exprType(firstRow, i), Nullable: true}
		}
		// Column names may repeat in SQL output; keep them as-is.
		schema.Columns = append(schema.Columns, col)
	}
	return schema
}

// exprType is the type of expression column i of a result whose first
// row is firstRow: its value's, or varchar when the result is empty.
func exprType(firstRow sqltypes.Row, i int) sqltypes.Type {
	if firstRow == nil {
		return sqltypes.VarChar(255)
	}
	return typeOf(firstRow[i])
}

// selectPlain projects each matched tuple to an output row, all rows in
// one backing array, then orders them and drops duplicates.
func (s *Session) selectPlain(st *sqlparse.Select, p *plan) (*sqltypes.ResultSet, error) {
	if p.projErr != nil {
		return nil, p.projErr
	}
	projs := p.projs
	n, width := p.matches(), len(projs)
	rows := make([]sqltypes.Row, n)
	vals := make([]sqltypes.Value, n*width)
	for t := range rows {
		sr := p.tuple(t)
		row := vals[t*width : (t+1)*width : (t+1)*width]
		for i, pr := range projs {
			if pr.expr == nil {
				row[i] = sr[pr.frameIdx][pr.colIdx]
				continue
			}
			v, err := s.eval(pr.expr, sr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows[t] = row
	}

	// ORDER BY before DISTINCT projection-only handling: sort using source
	// rows (expressions can reference any source column) or output aliases.
	if len(p.order) > 0 {
		type outRow struct {
			row sqltypes.Row
			t   int // the matched tuple it came from
		}
		out := make([]outRow, len(rows))
		for i, row := range rows {
			out[i] = outRow{row: row, t: i}
		}
		key := func(k orderKey, o outRow) (sqltypes.Value, error) {
			if k.out >= 0 {
				return o.row[k.out], nil
			}
			return s.eval(k.e, p.tuple(o.t))
		}
		var sortErr error
		sort.SliceStable(out, func(a, b int) bool {
			for _, k := range p.order {
				va, err := key(k, out[a])
				if err != nil {
					sortErr = err
					return false
				}
				vb, err := key(k, out[b])
				if err != nil {
					sortErr = err
					return false
				}
				c, known := va.Compare(vb)
				if !known {
					// Order NULLs first, as the server does.
					switch {
					case va.IsNull() && vb.IsNull():
						continue
					case va.IsNull():
						c = -1
					default:
						c = 1
					}
				}
				if c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for i, o := range out {
			rows[i] = o.row
		}
	}

	if st.Distinct {
		rows = distinctRows(rows)
	}
	var first sqltypes.Row
	if len(rows) > 0 {
		first = rows[0]
	}
	return &sqltypes.ResultSet{Schema: p.outputSchema(first), Rows: rows}, nil
}

// orderKey is one ORDER BY key: output column out, or, when out is
// negative, e evaluated on the source row. A grouped select orders by
// output columns only; err is the error of a key that names none, raised
// when the sort first compares by the key.
type orderKey struct {
	out  int
	e    *expr
	err  error
	desc bool
}

// orderKeys binds st's ORDER BY keys for plan p: an unqualified name
// refers to an output column first (the first whose name it matches),
// and otherwise a key is evaluated on the source row. A name that
// resolves to nothing fails when the sort evaluates its key, not here.
func orderKeys(st *sqlparse.Select, p *plan) []orderKey {
	var keys []orderKey
	for _, ob := range st.OrderBy {
		k := orderKey{out: -1, desc: ob.Desc}
		cr, isCol := ob.Expr.(*sqlparse.ColumnRef)
		switch {
		case p.grouped && !isCol:
			k.err = fmt.Errorf("ORDER BY with aggregates must reference output columns")
		case p.grouped:
			if k.out = projIndex(p.projs, cr.Name); k.out < 0 {
				k.err = fmt.Errorf("ORDER BY column %q not in output", cr.Name)
			}
		default:
			if isCol && len(cr.Qualifier.Parts) == 0 {
				k.out = projIndex(p.projs, cr.Name)
			}
			if k.out < 0 {
				k.e, _ = bind(ob.Expr, p.frames)
			}
		}
		keys = append(keys, k)
	}
	return keys
}

// distinctRows drops, in place, every row equal to an earlier one in
// kind and text, value by value (appendKey).
func distinctRows(rows []sqltypes.Row) []sqltypes.Row {
	seen := make(map[string]bool)
	var key []byte
	out := rows[:0]
	for _, r := range rows {
		key = key[:0]
		for _, v := range r {
			key = appendKey(key, v)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, r)
		}
	}
	return out
}

// appendKey appends v's grouping key to b: its kind, then the length and
// bytes of its text as AsString renders it. Two values get the same bytes
// exactly when they have the same kind and text, and the length keeps a
// row's values from running into each other, so a key of several values
// is unambiguous.
func appendKey(b []byte, v sqltypes.Value) []byte {
	b = append(b, byte(v.Kind()), 0, 0, 0, 0)
	at := len(b)
	b = v.AppendString(b)
	l := len(b) - at
	b[at-4], b[at-3], b[at-2], b[at-1] = byte(l>>24), byte(l>>16), byte(l>>8), byte(l)
	return b
}

// --- grouped / aggregate execution ---

// hasAggregate reports whether any of the bound items holds an aggregate.
func hasAggregate(items []*expr) bool {
	for _, x := range items {
		if x != nil && x.agg {
			return true
		}
	}
	return false
}

func (s *Session) selectGrouped(st *sqlparse.Select, p *plan) (*sqltypes.ResultSet, error) {
	if hasStarItems(st.Items) {
		return nil, fmt.Errorf("SELECT * cannot be combined with aggregates")
	}
	groups, err := s.partition(p)
	if err != nil {
		return nil, err
	}

	var rows []sqltypes.Row
	for _, group := range groups {
		if p.having != nil {
			hv, err := s.evalAgg(p, p.having, group)
			if err != nil {
				return nil, err
			}
			ok, known := hv.AsBool()
			if !known || !ok {
				continue
			}
		}
		row := make(sqltypes.Row, len(p.projs))
		for i, pr := range p.projs {
			v, err := s.evalAgg(p, pr.expr, group)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	// The first row typed the columns before any sort, as projectionSchema
	// does.
	var first sqltypes.Row
	if len(rows) > 0 {
		first = rows[0]
	}
	schema := p.outputSchema(first)

	if len(p.order) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(a, b int) bool {
			for _, k := range p.order {
				if k.err != nil {
					sortErr = k.err
					return false
				}
				c, known := rows[a][k.out].Compare(rows[b][k.out])
				if !known || c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if st.Distinct {
		rows = distinctRows(rows)
	}
	return &sqltypes.ResultSet{Schema: schema, Rows: rows}, nil
}

// partition splits the matched tuples into groups by their GROUP BY keys,
// evaluated tuple by tuple, and returns each group's tuple indices in
// tuple order, the groups in the order of their first tuples. The lists
// are consecutive slices of p.members. Without GROUP BY all tuples form
// one group, also when there are none.
func (s *Session) partition(p *plan) ([][]int32, error) {
	n := p.matches()
	p.members, p.groupOf = p.members[:0], p.groupOf[:0]
	if len(p.groupBy) == 0 {
		for t := 0; t < n; t++ {
			p.members = append(p.members, int32(t))
		}
		return [][]int32{p.members}, nil
	}
	// Number the groups in order of appearance, counting each one's
	// tuples; then lay them out one after another in p.members.
	ids := make(map[string]int32)
	var size []int32
	for t := 0; t < n; t++ {
		sr := p.tuple(t)
		p.key = p.key[:0]
		for _, ge := range p.groupBy {
			v, err := s.eval(ge, sr)
			if err != nil {
				return nil, err
			}
			p.key = appendKey(p.key, v)
		}
		g, ok := ids[string(p.key)]
		if !ok {
			g = int32(len(size))
			ids[string(p.key)] = g
			size = append(size, 0)
		}
		size[g]++
		p.groupOf = append(p.groupOf, g)
	}
	// end[g] is where group g's next tuple goes, and its end at last.
	end, at := size, int32(0)
	for g, k := range size {
		end[g], at = at, at+k
	}
	p.members = slices.Grow(p.members, n)[:n]
	for t, g := range p.groupOf {
		p.members[end[g]] = int32(t)
		end[g]++
	}
	groups := make([][]int32, len(end))
	at = 0
	for g := range groups {
		groups[g], at = p.members[at:end[g]], end[g]
	}
	return groups, nil
}

func hasStarItems(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if it.Star {
			return true
		}
	}
	return false
}

// evalAgg evaluates an expression over a group, the indices of its
// matched tuples: aggregate calls are computed across the group's rows, a
// function, operator or negation over them applies to their results, and
// everything else is evaluated on the group's first row — on a tuple of
// NULL columns when the group is empty, so a literal keeps its value.
func (s *Session) evalAgg(p *plan, e *expr, group []int32) (sqltypes.Value, error) {
	if e.agg {
		switch e.op {
		case opAggregate:
			return s.aggregate(p, e, group)
		case opFunc:
			args := make([]sqltypes.Value, len(e.args))
			for i, a := range e.args {
				v, err := s.evalAgg(p, a, group)
				if err != nil {
					return sqltypes.Null, err
				}
				args[i] = v
			}
			return s.call(e.name, args)
		case opAnd, opOr, opCompare, opArith, opLike:
			l, err := s.evalAgg(p, e.args[0], group)
			if err != nil {
				return sqltypes.Null, err
			}
			r, err := s.evalAgg(p, e.args[1], group)
			if err != nil {
				return sqltypes.Null, err
			}
			return binary(e, l, r)
		case opNot, opNeg:
			v, err := s.evalAgg(p, e.args[0], group)
			if err != nil {
				return sqltypes.Null, err
			}
			return unary(e, v)
		}
	}
	if len(group) == 0 {
		return s.eval(e, p.nullTuple())
	}
	return s.eval(e, p.tuple(int(group[0])))
}

// aggregate computes an aggregate call across a group's rows, folding
// each argument value as it is evaluated. A value the aggregate cannot
// take is an error only once the whole group has been evaluated, so an
// evaluation error in a later row is the one reported, and every call an
// argument makes happens, as when every value was evaluated first.
func (s *Session) aggregate(p *plan, e *expr, group []int32) (sqltypes.Value, error) {
	if e.name == "count" && e.star {
		return sqltypes.NewInt(int64(len(group))), nil
	}
	if len(e.args) != 1 {
		return sqltypes.Null, fmt.Errorf("%s() takes one argument", e.name)
	}
	var (
		n      int64 // the non-NULL values folded
		allInt = true
		total  float64
		itotal int64
		best   sqltypes.Value // min, max: the first of the least or greatest
		bad    error          // the first value the aggregate cannot take
	)
	for _, t := range group {
		v, err := s.eval(e.args[0], p.tuple(int(t)))
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() || bad != nil {
			continue
		}
		n++
		switch e.name {
		case "sum", "avg":
			x, ok := v.AsFloat()
			if !ok {
				bad = fmt.Errorf("%s() over non-numeric value", e.name)
				continue
			}
			total += x
			if v.Kind() == sqltypes.KindInt || v.Kind() == sqltypes.KindBit {
				itotal += v.Int()
			} else {
				allInt = false
			}
		case "min", "max":
			c, known := v.Compare(best)
			switch {
			case n == 1:
				best = v
			case !known:
				bad = fmt.Errorf("%s() over incomparable values", e.name)
			case (e.name == "min" && c < 0) || (e.name == "max" && c > 0):
				best = v
			}
		}
	}
	if bad != nil {
		return sqltypes.Null, bad
	}
	switch e.name {
	case "count":
		return sqltypes.NewInt(n), nil
	case "sum", "avg":
		switch {
		case n == 0:
			return sqltypes.Null, nil
		case e.name == "avg":
			return sqltypes.NewFloat(total / float64(n)), nil
		case allInt:
			return sqltypes.NewInt(itotal), nil
		}
		return sqltypes.NewFloat(total), nil
	case "min", "max":
		return best, nil
	}
	return sqltypes.Null, fmt.Errorf("unknown aggregate %q", e.name)
}
