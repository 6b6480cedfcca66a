package engine

import (
	"fmt"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// execProcedureCall runs EXECUTE proc arg, ... — the mechanism the ECA
// agent's Action Handler uses to invoke rule actions inside the server.
func (s *Session) execProcedureCall(st *sqlparse.Execute) (*sqltypes.ResultSet, error) {
	if !st.Proc.IsQualified() && isSystemProc(st.Proc.Name()) {
		return s.execSystemProc(st)
	}
	dbName := st.Proc.Database()
	db, err := s.database(dbName)
	if err != nil {
		return nil, err
	}
	proc, err := db.Procedure(st.Proc.Owner(), st.Proc.Name(), s.user)
	if err != nil {
		return nil, err
	}
	if s.procDepth >= maxTriggerDepth {
		return nil, fmt.Errorf("procedure nesting exceeds %d levels", maxTriggerDepth)
	}
	if len(st.Args) > len(proc.Params) {
		return nil, fmt.Errorf("procedure %s takes %d parameters, got %d arguments",
			proc.Name, len(proc.Params), len(st.Args))
	}

	// Bind arguments positionally, converting to the declared types.
	// Unsupplied parameters default to NULL. A procedure without
	// parameters declares no variable, so it needs no map.
	p := s.planFor(st)
	defer p.release()
	if !p.built {
		p.exprs, _ = bindAll(st.Args, nil)
		p.built = true
	}
	var vars map[string]sqltypes.Value
	if len(proc.Params) > 0 {
		vars = make(map[string]sqltypes.Value, len(proc.Params))
	}
	for i, param := range proc.Params {
		v := sqltypes.Null
		if i < len(p.exprs) {
			raw, err := s.eval(p.exprs[i], nil)
			if err != nil {
				return nil, err
			}
			v, err = raw.Convert(param.Type)
			if err != nil {
				return nil, fmt.Errorf("argument %d of %s: %v", i+1, proc.Name, err)
			}
		}
		vars[strings.ToLower(param.Name)] = v
	}

	// Procedures execute in their home database with their own parameter
	// scope, and their body is a catalog object the session keeps plans
	// for; the caller's context is restored afterwards.
	savedVars, savedDB, savedReuse := s.vars, s.db, s.reuse
	s.vars, s.reuse = vars, true
	if dbName != "" {
		s.db = dbName
	}
	s.procDepth++
	defer func() {
		s.vars, s.db, s.reuse = savedVars, savedDB, savedReuse
		s.procDepth--
	}()

	out := &sqltypes.ResultSet{}
	for _, bodyStmt := range proc.Body {
		rs, err := s.ExecStmt(bodyStmt)
		if rs != nil && (rs.Schema != nil || len(rs.Messages) > 0) {
			s.out = append(s.out, rs)
		}
		if rs != nil {
			out.RowsAffected += rs.RowsAffected
		}
		if err != nil {
			return out, fmt.Errorf("procedure %s: %v", proc.Name, err)
		}
	}
	return out, nil
}
