package engine

import (
	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

// The plan cache. A session keeps a sqlparse.Template for each batch
// shape it has parsed, keyed by sqlparse.AppendShape. A batch of a known
// shape is lexed but not parsed again; its literal values are bound into
// the cached statements. That is safe because a Session runs one batch at
// a time, the engine never writes to or keys anything by an AST node, and
// nothing ExecBatch returns keeps a node.

// planCap is how many shapes a session keeps; a full cache is emptied.
const planCap = 256

// parse returns the statements of one batch, from the plan cache when the
// session has parsed a batch of the same shape before. Only a batch of at
// most sqllex.MaxKeptSource bytes is cached: a template's names are slices
// of the text it was parsed from, so it keeps that text alive, and a bulk
// load is parsed once anyway.
func (s *Session) parse(src string) ([]sqlparse.Statement, error) {
	toks, err := sqllex.LexInto(&s.toks, src)
	if err != nil {
		return nil, err
	}
	keep := len(src) <= sqllex.MaxKeptSource
	if keep {
		s.key = sqlparse.AppendShape(s.key[:0], toks)
		if t := s.plans[string(s.key)]; t != nil {
			return t.Bind(toks)
		}
	}
	t, stmts, err := sqlparse.ParseTemplate(src, toks)
	if err != nil || t == nil || !keep || hasDDL(stmts) {
		return stmts, err
	}
	if s.plans == nil || len(s.plans) >= planCap {
		s.plans = make(map[string]*sqlparse.Template)
	}
	s.plans[string(s.key)] = t
	return stmts, nil
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
