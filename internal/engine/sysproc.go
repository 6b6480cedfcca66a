package engine

import (
	"fmt"
	"sort"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// System stored procedures, modeled on the originals the paper's users
// would reach for: sp_help (object inventory / table description),
// sp_helptext (procedure and trigger source), and sp_helpdb (database
// list). They are dispatched by name before user procedures.

// isSystemProc reports whether a procedure call targets a builtin.
func isSystemProc(name string) bool {
	switch strings.ToLower(name) {
	case "sp_help", "sp_helptext", "sp_helpdb":
		return true
	}
	return false
}

// execSystemProc runs a builtin procedure call.
func (s *Session) execSystemProc(st *sqlparse.Execute) (*sqltypes.ResultSet, error) {
	name := strings.ToLower(st.Proc.Name())
	var arg string
	if len(st.Args) > 0 {
		v, err := s.argString(st.Args[0])
		if err != nil {
			return nil, err
		}
		arg = v
	}
	if len(st.Args) > 1 {
		return nil, fmt.Errorf("%s takes at most one argument", name)
	}
	switch name {
	case "sp_help":
		return s.spHelp(arg)
	case "sp_helptext":
		return s.spHelpText(arg)
	case "sp_helpdb":
		return s.spHelpDB()
	default:
		return nil, fmt.Errorf("unknown system procedure %q", name)
	}
}

// argString evaluates a system-proc argument, accepting both quoted
// strings and bare object names (the isql convention: sp_help stock).
func (s *Session) argString(e sqlparse.Expr) (string, error) {
	if cr, ok := e.(*sqlparse.ColumnRef); ok {
		if len(cr.Qualifier.Parts) > 0 {
			return cr.Qualifier.String() + "." + cr.Name, nil
		}
		return cr.Name, nil
	}
	x, _ := bind(e, nil)
	v, err := s.eval(x, nil)
	if err != nil {
		return "", err
	}
	return v.AsString(), nil
}

// spHelp without an argument lists the current database's objects; with
// one it describes the named table's columns.
func (s *Session) spHelp(arg string) (*sqltypes.ResultSet, error) {
	db, err := s.database("")
	if err != nil {
		return nil, err
	}
	if arg == "" {
		names := db.TableNames()
		sort.Strings(names)
		rs := &sqltypes.ResultSet{Schema: sqltypes.NewSchema(
			sqltypes.Column{Name: "Name", Type: sqltypes.VarChar(120)},
			sqltypes.Column{Name: "Object_type", Type: sqltypes.VarChar(20)},
		)}
		for _, n := range names {
			rs.Rows = append(rs.Rows, sqltypes.Row{
				sqltypes.NewString(n), sqltypes.NewString("user table"),
			})
		}
		return rs, nil
	}
	parts := strings.Split(arg, ".")
	name := sqlparse.ObjectName{Parts: parts}
	tbl, err := s.resolveTable(name)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	rs := &sqltypes.ResultSet{Schema: sqltypes.NewSchema(
		sqltypes.Column{Name: "Column_name", Type: sqltypes.VarChar(120)},
		sqltypes.Column{Name: "Type", Type: sqltypes.VarChar(20)},
		sqltypes.Column{Name: "Length", Type: sqltypes.Int},
		sqltypes.Column{Name: "Nulls", Type: sqltypes.VarChar(10)},
	)}
	for _, c := range schema.Columns {
		nulls := "not null"
		if c.Nullable {
			nulls = "NULL"
		}
		rs.Rows = append(rs.Rows, sqltypes.Row{
			sqltypes.NewString(c.Name),
			sqltypes.NewString(c.Type.Kind.String()),
			sqltypes.NewInt(int64(c.Type.Length)),
			sqltypes.NewString(nulls),
		})
	}
	return rs, nil
}

// spHelpText prints the stored source of a procedure or trigger, as the
// original reads syscomments.
func (s *Session) spHelpText(arg string) (*sqltypes.ResultSet, error) {
	if arg == "" {
		return nil, fmt.Errorf("sp_helptext requires an object name")
	}
	parts := strings.Split(arg, ".")
	name := sqlparse.ObjectName{Parts: parts}
	db, err := s.database(name.Database())
	if err != nil {
		return nil, err
	}
	if p, err := db.Procedure(name.Owner(), name.Name(), s.user); err == nil {
		return &sqltypes.ResultSet{Messages: []string{p.RawSQL}}, nil
	}
	if tr, err := db.Trigger(name.Owner(), name.Name(), s.user); err == nil {
		return &sqltypes.ResultSet{Messages: []string{tr.RawSQL}}, nil
	}
	return nil, fmt.Errorf("no procedure or trigger named %s", arg)
}

// spHelpDB lists databases.
func (s *Session) spHelpDB() (*sqltypes.ResultSet, error) {
	names := s.eng.cat.DatabaseNames()
	sort.Strings(names)
	rs := &sqltypes.ResultSet{Schema: sqltypes.NewSchema(
		sqltypes.Column{Name: "name", Type: sqltypes.VarChar(60)},
	)}
	for _, n := range names {
		rs.Rows = append(rs.Rows, sqltypes.Row{sqltypes.NewString(n)})
	}
	return rs, nil
}
