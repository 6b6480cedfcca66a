package engine

import (
	"fmt"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

func (s *Session) execInsert(st *sqlparse.Insert) (*sqltypes.ResultSet, error) {
	tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()

	var rows []sqltypes.Row
	if st.Select != nil {
		rs, err := s.runSelect(st.Select)
		if err != nil {
			return nil, err
		}
		for _, r := range rs.Rows {
			full, err := arrangeRow(schema, st.Columns, r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	} else {
		for _, exprRow := range st.Values {
			vals := make(sqltypes.Row, len(exprRow))
			for i, e := range exprRow {
				v, err := s.eval(e, nil)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			full, err := arrangeRow(schema, st.Columns, vals)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	}

	s.txnSaveTable(tbl)
	stored, err := tbl.InsertMany(rows)
	if err != nil {
		return nil, err
	}
	if err := s.fireTrigger(st.Table, sqlparse.OpInsert, stored, nil, schema); err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{RowsAffected: len(rows)}, nil
}

// arrangeRow positions the supplied values according to the optional
// column list, filling unmentioned columns with NULL.
func arrangeRow(schema *sqltypes.Schema, cols []string, vals sqltypes.Row) (sqltypes.Row, error) {
	if len(cols) == 0 {
		if len(vals) != schema.Len() {
			return nil, fmt.Errorf("insert supplies %d values for %d columns", len(vals), schema.Len())
		}
		return vals, nil
	}
	if len(vals) != len(cols) {
		return nil, fmt.Errorf("insert supplies %d values for %d named columns", len(vals), len(cols))
	}
	full := make(sqltypes.Row, schema.Len())
	for i := range full {
		full[i] = sqltypes.Null
	}
	for i, c := range cols {
		ci := schema.Index(c)
		if ci < 0 {
			return nil, fmt.Errorf("unknown column %q in insert list", c)
		}
		full[ci] = vals[i]
	}
	return full, nil
}

func (s *Session) execUpdate(st *sqlparse.Update) (*sqltypes.ResultSet, error) {
	p := s.planFor(st)
	defer p.release()
	target := []sqlparse.TableRef{{Name: st.Table}}
	fits, err := s.resolve(p, target)
	if err != nil {
		return nil, err
	}
	if !fits {
		if err := s.planUpdate(st, p, target); err != nil {
			return nil, err
		}
	}
	tbl, frames, setIdx := p.tables[0], p.frames, p.setIdx
	fr, schema := frames[0], frames[0].schema

	s.txnSaveTable(tbl)
	old, updated, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) {
			fr.row = r
			return s.truthy(st.Where, frames)
		},
		func(r sqltypes.Row) (sqltypes.Row, error) {
			// fr.row is still the stored row pred just accepted, so the
			// assignments see pre-update values while r takes the new ones.
			for i, a := range st.Set {
				v, err := s.eval(a.Value, frames)
				if err != nil {
					return nil, err
				}
				r[setIdx[i]] = v
			}
			return r, nil
		},
	)
	if err != nil {
		return nil, err
	}
	if err := s.fireTrigger(st.Table, sqlparse.OpUpdate, updated, old, schema); err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{RowsAffected: len(updated)}, nil
}

// planUpdate builds p for UPDATE st: the target's frame and the position
// of each SET column, validated up front.
func (s *Session) planUpdate(st *sqlparse.Update, p *plan, target []sqlparse.TableRef) error {
	s.rebuild(p, target)
	schema := p.frames[0].schema
	p.setIdx = make([]int, len(st.Set))
	for i, a := range st.Set {
		ci := schema.Index(a.Column)
		if ci < 0 {
			return fmt.Errorf("unknown column %q in update", a.Column)
		}
		p.setIdx[i] = ci
	}
	p.built = true
	return nil
}

func (s *Session) execDelete(st *sqlparse.Delete) (*sqltypes.ResultSet, error) {
	p := s.planFor(st)
	defer p.release()
	target := []sqlparse.TableRef{{Name: st.Table}}
	fits, err := s.resolve(p, target)
	if err != nil {
		return nil, err
	}
	if !fits {
		s.rebuild(p, target)
		p.built = true
	}
	tbl, frames := p.tables[0], p.frames
	fr, schema := frames[0], frames[0].schema

	s.txnSaveTable(tbl)
	removed, err := tbl.Delete(func(r sqltypes.Row) (bool, error) {
		fr.row = r
		return s.truthy(st.Where, frames)
	})
	if err != nil {
		return nil, err
	}
	if err := s.fireTrigger(st.Table, sqlparse.OpDelete, nil, removed, schema); err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{RowsAffected: len(removed)}, nil
}

// fireTrigger runs the native trigger for (table, op), if one exists and
// any rows were affected. The trigger body sees the inserted/deleted
// pseudo-tables; its output is appended to the session's pending extra
// results, which ExecBatch interleaves after the triggering statement —
// the order a real client would observe on the wire.
func (s *Session) fireTrigger(tableName sqlparse.ObjectName, op sqlparse.TriggerOp, inserted, deleted []sqltypes.Row, schema *sqltypes.Schema) error {
	if len(inserted) == 0 && len(deleted) == 0 {
		return nil
	}
	db, err := s.database(tableName.Database())
	if err != nil {
		return err
	}
	tr, ok := db.TriggerFor(tableName.Owner(), tableName.Name(), s.user, op)
	if !ok {
		return nil
	}
	if len(s.trigCtx) >= maxTriggerDepth {
		return fmt.Errorf("trigger nesting exceeds %d levels", maxTriggerDepth)
	}

	// The images are rows the base table stored, in slices nobody else
	// holds, so the pseudo-tables adopt them; the nullable schema has the
	// base column types, so they fit it as stored.
	nullable := s.nullable(schema)
	ctx := &triggerContext{}
	if inserted != nil {
		ctx.inserted = storage.NewTableOn(nullable, inserted)
	}
	if deleted != nil {
		ctx.deleted = storage.NewTableOn(nullable, deleted)
	}

	// The body is a catalog object the session keeps plans for.
	savedReuse := s.reuse
	s.trigCtx, s.reuse = append(s.trigCtx, ctx), true
	defer func() { s.trigCtx, s.reuse = s.trigCtx[:len(s.trigCtx)-1], savedReuse }()

	for _, st := range tr.Body {
		rs, err := s.ExecStmt(st)
		if rs != nil && (rs.Schema != nil || len(rs.Messages) > 0) {
			s.extra = append(s.extra, rs)
		}
		if err != nil {
			return fmt.Errorf("trigger %s: %v", tr.Name, err)
		}
	}
	return nil
}
