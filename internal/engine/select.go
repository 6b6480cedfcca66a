package engine

import (
	"fmt"
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
	if err := tbl.InsertMany(rs.Rows); err != nil {
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
	// nested-loop cartesian product.
	var matched []sourceRow
	planned := false
	if p.steps != nil {
		matched, planned = s.joinIndexed(st.Where, p)
	}
	if !planned {
		if matched, err = s.joinScan(st.Where, p); err != nil {
			return nil, err
		}
	}

	if p.grouped {
		return s.selectGrouped(st, p, matched)
	}
	return s.selectPlain(st, p, matched)
}

// planSelect builds p for st against the FROM tables p.tables holds:
// frames, compile-time column validation (which matters when zero rows
// match), the join plan and the projection list.
func (s *Session) planSelect(st *sqlparse.Select, p *plan) error {
	s.rebuild(p, st.From)
	if err := s.validateColumns(st.Where, p.frames); err != nil {
		return err
	}
	for _, item := range st.Items {
		if !item.Star {
			if err := s.validateColumns(item.Expr, p.frames); err != nil {
				return err
			}
		}
	}
	for _, ge := range st.GroupBy {
		if err := s.validateColumns(ge, p.frames); err != nil {
			return err
		}
	}
	if err := s.validateColumns(st.Having, p.frames); err != nil {
		return err
	}
	for _, l := range p.refs {
		if l.nidx > 0 {
			p.vars = s.varsOf(st.Where, nil)
			p.steps = s.planJoin(st.Where, p.frames, p.tables)
			break
		}
	}
	p.grouped = len(st.GroupBy) > 0 || hasAggregates(st.Items) || hasAggregateExpr(st.Having)
	if p.grouped {
		p.projs = itemProjections(st.Items)
	} else {
		p.projs, p.projErr = s.buildProjections(st, p.frames)
	}
	p.built = true
	return nil
}

func (s *Session) selectWithoutFrom(st *sqlparse.Select, p *plan) (*sqltypes.ResultSet, error) {
	if hasAggregates(st.Items) {
		return nil, fmt.Errorf("aggregate without FROM")
	}
	if st.Where != nil || len(st.GroupBy) > 0 || st.Having != nil || len(st.OrderBy) > 0 {
		return nil, fmt.Errorf("WHERE/GROUP/HAVING/ORDER require FROM")
	}
	row := make(sqltypes.Row, 0, len(st.Items))
	for _, item := range st.Items {
		if item.Star {
			return nil, fmt.Errorf("SELECT * requires FROM")
		}
		v, err := s.eval(item.Expr, nil)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	if !p.built {
		p.projs, p.built = itemProjections(st.Items), true
	}
	return &sqltypes.ResultSet{Schema: p.outputSchema(row), Rows: []sqltypes.Row{row}}, nil
}

// projection describes the output columns: either an expansion of a frame's
// columns (star) or a single expression.
type projection struct {
	frameIdx int // for star columns
	colIdx   int
	expr     sqlparse.Expr // nil for star columns
	name     string
}

func (s *Session) buildProjections(st *sqlparse.Select, frames []*frame) ([]projection, error) {
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
			projs = append(projs, projection{expr: item.Expr, name: itemName(item, i)})
		}
	}
	return projs, nil
}

// itemProjections is the projection list of a select whose items are all
// expressions: one that groups or has no FROM.
func itemProjections(items []sqlparse.SelectItem) []projection {
	projs := make([]projection, len(items))
	for i, item := range items {
		projs[i] = projection{expr: item.Expr, name: itemName(item, i)}
	}
	return projs
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

func (s *Session) selectPlain(st *sqlparse.Select, p *plan, matched []sourceRow) (*sqltypes.ResultSet, error) {
	if p.projErr != nil {
		return nil, p.projErr
	}
	frames, projs := p.frames, p.projs
	rows := make([]sqltypes.Row, len(matched))
	for n, sr := range matched {
		for i := range frames {
			frames[i].row = sr[i]
		}
		row := make(sqltypes.Row, len(projs))
		for i, pr := range projs {
			if pr.expr == nil {
				row[i] = sr[pr.frameIdx][pr.colIdx]
				continue
			}
			v, err := s.eval(pr.expr, frames)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows[n] = row
	}

	// ORDER BY before DISTINCT projection-only handling: sort using source
	// rows (expressions can reference any source column) or output aliases.
	if len(st.OrderBy) > 0 {
		type outRow struct {
			row sqltypes.Row
			src sourceRow
		}
		out := make([]outRow, len(rows))
		for i, row := range rows {
			out[i] = outRow{row: row, src: matched[i]}
		}
		var sortErr error
		sort.SliceStable(out, func(a, b int) bool {
			for _, ob := range st.OrderBy {
				va, err := s.orderKey(ob.Expr, frames, out[a].src, out[a].row, projs)
				if err != nil {
					sortErr = err
					return false
				}
				vb, err := s.orderKey(ob.Expr, frames, out[b].src, out[b].row, projs)
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
				if ob.Desc {
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

// orderKey evaluates an ORDER BY expression: output alias reference first,
// then source-row evaluation.
func (s *Session) orderKey(e sqlparse.Expr, frames []*frame, src sourceRow, out sqltypes.Row, projs []projection) (sqltypes.Value, error) {
	if cr, ok := e.(*sqlparse.ColumnRef); ok && len(cr.Qualifier.Parts) == 0 {
		for i, p := range projs {
			if strings.EqualFold(p.name, cr.Name) {
				return out[i], nil
			}
		}
	}
	for i := range frames {
		frames[i].row = src[i]
	}
	return s.eval(e, frames)
}

func distinctRows(rows []sqltypes.Row) []sqltypes.Row {
	seen := make(map[string]bool, len(rows))
	var out []sqltypes.Row
	for _, r := range rows {
		key := rowKey(r)
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

func rowKey(r sqltypes.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprintf("%d:%s", v.Kind(), v.AsString())
	}
	return strings.Join(parts, "\x00")
}

// --- grouped / aggregate execution ---

func hasAggregates(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil && hasAggregateExpr(it.Expr) {
			return true
		}
	}
	return false
}

func hasAggregateExpr(e sqlparse.Expr) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *sqlparse.FuncCall:
		if aggregateFuncs[e.Name] {
			return true
		}
		for _, a := range e.Args {
			if hasAggregateExpr(a) {
				return true
			}
		}
	case *sqlparse.BinaryExpr:
		return hasAggregateExpr(e.L) || hasAggregateExpr(e.R)
	case *sqlparse.UnaryExpr:
		return hasAggregateExpr(e.E)
	case *sqlparse.IsNull:
		return hasAggregateExpr(e.E)
	case *sqlparse.InList:
		if hasAggregateExpr(e.E) {
			return true
		}
		for _, x := range e.List {
			if hasAggregateExpr(x) {
				return true
			}
		}
	}
	return false
}

func (s *Session) selectGrouped(st *sqlparse.Select, p *plan, matched []sourceRow) (*sqltypes.ResultSet, error) {
	if hasStarItems(st.Items) {
		return nil, fmt.Errorf("SELECT * cannot be combined with aggregates")
	}
	frames := p.frames
	// Partition matched rows into groups.
	groups := make(map[string][]sourceRow)
	var order []string
	for _, sr := range matched {
		for i := range frames {
			frames[i].row = sr[i]
		}
		var key string
		if len(st.GroupBy) > 0 {
			keys := make([]string, len(st.GroupBy))
			for i, ge := range st.GroupBy {
				v, err := s.eval(ge, frames)
				if err != nil {
					return nil, err
				}
				keys[i] = fmt.Sprintf("%d:%s", v.Kind(), v.AsString())
			}
			key = strings.Join(keys, "\x00")
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], sr)
	}
	// A global aggregate over zero rows still yields one (empty) group.
	if len(st.GroupBy) == 0 && len(order) == 0 {
		order = append(order, "")
		groups[""] = nil
	}

	var rows []sqltypes.Row
	for _, key := range order {
		group := groups[key]
		if st.Having != nil {
			hv, err := s.evalAggExpr(st.Having, frames, group)
			if err != nil {
				return nil, err
			}
			ok, known := hv.AsBool()
			if !known || !ok {
				continue
			}
		}
		row := make(sqltypes.Row, len(st.Items))
		for i, item := range st.Items {
			v, err := s.evalAggExpr(item.Expr, frames, group)
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

	if len(st.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(a, b int) bool {
			for _, ob := range st.OrderBy {
				cr, ok := ob.Expr.(*sqlparse.ColumnRef)
				if !ok {
					sortErr = fmt.Errorf("ORDER BY with aggregates must reference output columns")
					return false
				}
				ci := schema.Index(cr.Name)
				if ci < 0 {
					sortErr = fmt.Errorf("ORDER BY column %q not in output", cr.Name)
					return false
				}
				c, known := rows[a][ci].Compare(rows[b][ci])
				if !known || c == 0 {
					continue
				}
				if ob.Desc {
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

func hasStarItems(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if it.Star {
			return true
		}
	}
	return false
}

// evalAggExpr evaluates an expression over a group: aggregate calls are
// computed across the group's rows; everything else is evaluated on the
// group's first row.
func (s *Session) evalAggExpr(e sqlparse.Expr, frames []*frame, group []sourceRow) (sqltypes.Value, error) {
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		if aggregateFuncs[e.Name] {
			return s.computeAggregate(e, frames, group)
		}
		if hasAggregateExpr(e) {
			// A scalar function over aggregate results, e.g. abs(-sum(a)):
			// compute each argument over the group, then apply the
			// function to the resulting constants.
			args := make([]sqlparse.Expr, len(e.Args))
			for i, a := range e.Args {
				v, err := s.evalAggExpr(a, frames, group)
				if err != nil {
					return sqltypes.Null, err
				}
				args[i] = &sqlparse.Literal{Value: v}
			}
			return s.evalFunc(&sqlparse.FuncCall{Name: e.Name, Args: args}, nil)
		}
	case *sqlparse.BinaryExpr:
		if hasAggregateExpr(e) {
			l, err := s.evalAggExpr(e.L, frames, group)
			if err != nil {
				return sqltypes.Null, err
			}
			r, err := s.evalAggExpr(e.R, frames, group)
			if err != nil {
				return sqltypes.Null, err
			}
			return s.evalBinary(&sqlparse.BinaryExpr{Op: e.Op,
				L: &sqlparse.Literal{Value: l}, R: &sqlparse.Literal{Value: r}}, nil)
		}
	case *sqlparse.UnaryExpr:
		if hasAggregateExpr(e) {
			v, err := s.evalAggExpr(e.E, frames, group)
			if err != nil {
				return sqltypes.Null, err
			}
			return s.evalUnary(&sqlparse.UnaryExpr{Op: e.Op, E: &sqlparse.Literal{Value: v}}, nil)
		}
	}
	// Non-aggregate: evaluate on the first row of the group.
	if len(group) == 0 {
		return sqltypes.Null, nil
	}
	for i := range frames {
		frames[i].row = group[0][i]
	}
	return s.eval(e, frames)
}

func (s *Session) computeAggregate(e *sqlparse.FuncCall, frames []*frame, group []sourceRow) (sqltypes.Value, error) {
	if e.Name == "count" && e.Star {
		return sqltypes.NewInt(int64(len(group))), nil
	}
	if len(e.Args) != 1 {
		return sqltypes.Null, fmt.Errorf("%s() takes one argument", e.Name)
	}
	var values []sqltypes.Value
	for _, sr := range group {
		for i := range frames {
			frames[i].row = sr[i]
		}
		v, err := s.eval(e.Args[0], frames)
		if err != nil {
			return sqltypes.Null, err
		}
		if !v.IsNull() {
			values = append(values, v)
		}
	}
	switch e.Name {
	case "count":
		return sqltypes.NewInt(int64(len(values))), nil
	case "sum", "avg":
		if len(values) == 0 {
			return sqltypes.Null, nil
		}
		allInt := true
		total := 0.0
		var itotal int64
		for _, v := range values {
			f, ok := v.AsFloat()
			if !ok {
				return sqltypes.Null, fmt.Errorf("%s() over non-numeric value", e.Name)
			}
			total += f
			if v.Kind() == sqltypes.KindInt || v.Kind() == sqltypes.KindBit {
				itotal += v.Int()
			} else {
				allInt = false
			}
		}
		if e.Name == "avg" {
			return sqltypes.NewFloat(total / float64(len(values))), nil
		}
		if allInt {
			return sqltypes.NewInt(itotal), nil
		}
		return sqltypes.NewFloat(total), nil
	case "min", "max":
		if len(values) == 0 {
			return sqltypes.Null, nil
		}
		best := values[0]
		for _, v := range values[1:] {
			c, known := v.Compare(best)
			if !known {
				return sqltypes.Null, fmt.Errorf("%s() over incomparable values", e.Name)
			}
			if (e.Name == "min" && c < 0) || (e.Name == "max" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return sqltypes.Null, fmt.Errorf("unknown aggregate %q", e.Name)
	}
}
