package engine

import (
	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// The plan cache has two halves, both per session.
//
// Templates: a session keeps a sqlparse.Template for each batch shape it
// has parsed, keyed by sqlparse.AppendShape. A batch of a known shape is
// lexed but not parsed again; its literal values are bound into the
// cached statements. That is safe because a Session runs one batch at a
// time and nothing ExecBatch returns keeps a node.
//
// Statement plans: a session keeps a plan for each statement node with
// expressions that it will run again (SELECT, UPDATE, DELETE, INSERT,
// PRINT and EXECUTE) — a template's statements and the bodies of
// procedures and triggers — keyed by the node. A plan holds what planning
// derives from the tables the statement names: frames, the statement's
// expressions bound to them (bind: column references as frame and
// position, so an unknown column fails the plan), the projection list,
// the join steps and the last output schema, so a run keeps only per-row
// state. Procedure and trigger bodies are catalog objects other sessions
// run concurrently, so the engine keys plans by a node but never writes
// anything into one; a bound literal points at the node's Literal, whose
// value a template rebinds before every run. A plan is reused only while
// every table it names has the layout it was built on, the session
// database is the one it was built in, and the WHERE's variables are
// declared as they were; otherwise it is built and bound afresh. A plan
// of a statement without tables is built once. A statement that runs
// while its own plan is in use gets a plan that is not kept.

// planCap is how many shapes and nullable schemas a session keeps, and a
// quarter of how many statement plans. Full templates or plans empty the
// whole cache; a full set of nullable schemas empties only itself.
const planCap = 256

// parse returns the statements of one batch, from the template cache when
// the session has parsed a batch of the same shape before. kept reports
// whether the statements belong to a cached template, so the session will
// see the same nodes again. Only a batch of at most sqllex.MaxKeptSource
// bytes is cached: a template's names are slices of the text it was
// parsed from, so it keeps that text alive, and a bulk load is parsed once
// anyway.
func (s *Session) parse(src string) (stmts []sqlparse.Statement, kept bool, err error) {
	toks, err := sqllex.LexInto(&s.toks, src)
	if err != nil {
		return nil, false, err
	}
	keep := len(src) <= sqllex.MaxKeptSource
	if keep {
		s.key = sqlparse.AppendShape(s.key[:0], toks)
		if t := s.templates[string(s.key)]; t != nil {
			stmts, err = t.Bind(toks)
			return stmts, true, err
		}
	}
	t, stmts, err := sqlparse.ParseTemplate(src, toks)
	if err != nil || t == nil || !keep || hasDDL(stmts) {
		return stmts, false, err
	}
	if s.templates == nil || len(s.templates) >= planCap {
		s.forget()
		s.templates = make(map[string]*sqlparse.Template)
	}
	s.templates[string(s.key)] = t
	return stmts, true, nil
}

// forget empties the plan cache: the templates, the statement plans and
// the pseudo-tables' nullable schemas.
func (s *Session) forget() {
	s.templates, s.plans, s.nullables = nil, nil, nil
}

// hasDDL reports whether a batch creates, drops or alters anything: the
// catalog keeps the AST or the text of such statements, so their batch is
// never cached.
func hasDDL(stmts []sqlparse.Statement) bool {
	for _, st := range stmts {
		switch st.(type) {
		case *sqlparse.CreateDatabase, *sqlparse.CreateTable, *sqlparse.DropTable,
			*sqlparse.AlterTableAdd, *sqlparse.CreateIndex, *sqlparse.CreateTrigger,
			*sqlparse.DropTrigger, *sqlparse.CreateProcedure, *sqlparse.DropProcedure:
			return true
		}
	}
	return false
}

// plan is what a session keeps of planning one statement node.
type plan struct {
	busy  bool // the node is running on this plan
	built bool // the fields below describe db, refs and vars

	db   string
	refs []layout   // of each table the statement names, in order
	vars []varCheck // the variables the WHERE reads, when it has join steps

	// frames describe the statement's tables to bind, and the bound
	// expressions below read the rows of those frames.
	frames []*frame
	where  *expr
	exprs  []*expr   // PRINT's value, EXECUTE's arguments, UPDATE's SET values
	values [][]*expr // INSERT's VALUES rows

	// tables holds the statement's tables resolved for the current run,
	// and cur the current row of each frame; they and the join's buffers
	// below are per-run state, kept only to reuse the slices.
	tables []*storage.Table
	cur    sourceRow
	rows   [][]sqltypes.Row // each frame's slot array
	at     []int            // each frame's current row position
	pins   []storage.Pin

	// The join's answer is matched: the tuples WHERE accepts, each as one
	// position per frame into rows, in FROM-order row-position order.
	// probe holds the positions of the index probes under way, and
	// members and groupOf the tuple indices of a grouped select (select.go).
	// Positions are not rows, so the buffers hold no row when the run ends;
	// release keeps them for the next run up to keptPositions each.
	matched []int32
	probe   []int32
	members []int32
	groupOf []int32
	key     []byte // a GROUP BY key

	// SELECT: whether it groups, the join steps (nil: scan), the
	// projection list or the error building it, the GROUP BY keys, HAVING,
	// the ORDER BY keys and the output schema of the last run.
	grouped bool
	steps   []joinStep
	projs   []projection
	projErr error
	groupBy []*expr
	having  *expr
	order   []orderKey
	schema  *sqltypes.Schema

	// UPDATE: the column position of each SET.
	setIdx []int
}

// layout is what a plan takes from a table: its schema and how many
// indexes it has. The schema alone decides what the plan's frames and
// column positions mean, and two tables share one only when they are the
// trigger pseudo-tables of one base table (Session.nullable), so a
// trigger body's plan fits every firing. The index count lets a plan
// follow a new index; indexes are only ever added. A join step is checked
// again at every probe (storage.Pin.Lookup answers only on an indexed
// column), so a step planned on another table's index falls back to the
// scan.
type layout struct {
	schema *sqltypes.Schema
	nidx   int
}

func layoutOf(tbl *storage.Table) layout {
	schema, nidx := tbl.Layout()
	return layout{schema, nidx}
}

// varCheck records whether a variable (lower-cased name) was declared
// when the plan was built: the join plan probes on a declared variable
// only.
type varCheck struct {
	name     string
	declared bool
}

// planFor returns the plan to run node st on and marks it in use: the
// session's plan for st, or, when st is a node the session will not see
// again or its plan is already in use, a new plan that is not kept.
// Every planFor is paired with a release.
func (s *Session) planFor(st sqlparse.Statement) *plan {
	p := s.plans[st]
	switch {
	case p != nil && !p.busy:
	case p == nil && s.reuse:
		if len(s.plans) >= 4*planCap {
			s.forget()
		}
		if s.plans == nil {
			s.plans = make(map[sqlparse.Statement]*plan)
		}
		p = &plan{}
		s.plans[st] = p
	default:
		p = &plan{}
	}
	p.busy = true
	return p
}

// keptPositions is the most positions a plan keeps in each of its
// position buffers between runs (64 KiB): a run that needs more grows the
// buffer, and release drops it.
const keptPositions = 1 << 14

// release ends a run on p, dropping the rows and tables it bound.
func (p *plan) release() {
	clear(p.tables)
	clear(p.rows)
	clear(p.pins)
	clear(p.cur)
	p.matched, p.probe = reusable(p.matched), reusable(p.probe)
	p.members, p.groupOf = reusable(p.members), reusable(p.groupOf)
	p.busy = false
}

// reusable returns buf emptied, or nil when it holds more than keptPositions.
func reusable(buf []int32) []int32 {
	if cap(buf) > keptPositions {
		return nil
	}
	return buf[:0]
}

// scratch empties p.matched and returns the join's row lists and
// positions, one per frame and all zero.
func (p *plan) scratch() ([][]sqltypes.Row, []int) {
	if n := len(p.frames); len(p.at) != n {
		p.rows, p.at = make([][]sqltypes.Row, n), make([]int, n)
	}
	clear(p.rows)
	clear(p.at)
	p.matched = p.matched[:0]
	return p.rows, p.at
}

// addMatch appends the tuple at, one row position per frame, to p.matched.
func (p *plan) addMatch(at []int) {
	for _, a := range at {
		p.matched = append(p.matched, int32(a))
	}
}

// matches returns how many tuples p.matched holds.
func (p *plan) matches() int { return len(p.matched) / len(p.cur) }

// tuple sets p.cur to matched tuple t, reading its rows through p.rows,
// and returns it.
func (p *plan) tuple(t int) sourceRow {
	n := len(p.cur)
	for f, a := range p.matched[t*n : (t+1)*n] {
		p.cur[f] = p.rows[f][a]
	}
	return p.cur
}

// nullTuple sets p.cur to a tuple whose every column is NULL and returns
// it: the row a global aggregate over no matched tuples evaluates its
// other operands on.
func (p *plan) nullTuple() sourceRow {
	for f, fr := range p.frames {
		p.cur[f] = make(sqltypes.Row, len(fr.schema.Columns))
	}
	return p.cur
}

// resolve resolves the tables of a statement's FROM list (or its one
// target table) into p.tables, in order, and reports whether p was built
// against them as they are now.
func (s *Session) resolve(p *plan, from []sqlparse.TableRef) (fits bool, err error) {
	p.tables = p.tables[:0]
	fits = p.built && p.db == s.db && len(p.refs) == len(from)
	for i, ref := range from {
		tbl, err := s.resolveTable(ref.Name)
		if err != nil {
			return false, err
		}
		p.tables = append(p.tables, tbl)
		fits = fits && layoutOf(tbl) == p.refs[i]
	}
	for _, v := range p.vars {
		if _, ok := s.vars[v.name]; ok != v.declared {
			return false, nil
		}
	}
	return fits, nil
}

// rebuild clears p for planning afresh against p.tables in the session's
// database and builds a frame on each table for the matching FROM entry.
func (s *Session) rebuild(p *plan, from []sqlparse.TableRef) {
	*p = plan{busy: true, db: s.db, tables: p.tables, cur: make(sourceRow, len(p.tables))}
	for i, tbl := range p.tables {
		l := layoutOf(tbl)
		p.refs = append(p.refs, l)
		p.frames = append(p.frames, newFrame(from[i], l.schema, s.db))
	}
}

// varsOf appends to out the variables e reads, each once, with whether it
// is declared now.
func (s *Session) varsOf(e *expr, out []varCheck) []varCheck {
	if e.op == opVar {
		for _, v := range out {
			if v.name == e.key {
				return out
			}
		}
		_, declared := s.vars[e.key]
		return append(out, varCheck{e.key, declared})
	}
	for _, a := range e.args {
		out = s.varsOf(a, out)
	}
	return out
}

// outputSchema returns the schema of a result whose first row is first
// (nil when it is empty): the last run's, while its expression columns
// have the types first gives them (projectionSchema).
func (p *plan) outputSchema(first sqltypes.Row) *sqltypes.Schema {
	if p.schema != nil {
		for i, pr := range p.projs {
			if pr.expr != nil && p.schema.Columns[i].Type != exprType(first, i) {
				p.schema = nil
				break
			}
		}
	}
	if p.schema == nil {
		p.schema = projectionSchema(p.projs, p.frames, first)
	}
	return p.schema
}

// nullable returns the nullable copy of a base table's schema that the
// trigger pseudo-tables built on it share: one per base schema, read-only
// like every table schema, so a trigger body's plans fit the
// pseudo-tables of every firing.
func (s *Session) nullable(schema *sqltypes.Schema) *sqltypes.Schema {
	if n := s.nullables[schema]; n != nil {
		return n
	}
	n := schema.Clone()
	for i := range n.Columns {
		n.Columns[i].Nullable = true
	}
	if s.nullables == nil || len(s.nullables) >= planCap {
		s.nullables = make(map[*sqltypes.Schema]*sqltypes.Schema)
	}
	s.nullables[schema] = n
	return n
}
