package sqlparse

import (
	"fmt"
	"strings"
)

// This file renders AST nodes back to SQL text. The renderer produces the
// canonical spelling the agent's code generator and the persistence layer
// store; ParseBatch(n.SQL()) round-trips for every node.

func (s *CreateDatabase) SQL() string { return "create database " + s.Name }
func (s *UseDatabase) SQL() string    { return "use " + s.Name }

func colDefSQL(c ColumnDef) string {
	out := c.Name + " " + c.Type.String()
	if c.NullSpecified {
		if c.Nullable {
			out += " null"
		} else {
			out += " not null"
		}
	}
	return out
}

func (s *CreateTable) SQL() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = colDefSQL(c)
	}
	return fmt.Sprintf("create table %s (%s)", s.Name, strings.Join(parts, ", "))
}

func (s *DropTable) SQL() string { return "drop table " + s.Name.String() }

func (s *AlterTableAdd) SQL() string {
	return fmt.Sprintf("alter table %s add %s", s.Table, colDefSQL(s.Column))
}

func (s *CreateIndex) SQL() string {
	return fmt.Sprintf("create index %s on %s (%s)", s.Name, s.Table, s.Column)
}

func (s *Insert) SQL() string {
	var b strings.Builder
	b.WriteString("insert ")
	b.WriteString(s.Table.String())
	if len(s.Columns) > 0 {
		b.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	if s.Select != nil {
		b.WriteString(" " + s.Select.SQL())
		return b.String()
	}
	b.WriteString(" values ")
	rows := make([]string, len(s.Values))
	for i, row := range s.Values {
		cells := make([]string, len(row))
		for j, e := range row {
			cells[j] = e.SQL()
		}
		rows[i] = "(" + strings.Join(cells, ", ") + ")"
	}
	b.WriteString(strings.Join(rows, ", "))
	return b.String()
}

func (s *Select) SQL() string {
	var b strings.Builder
	b.WriteString("select ")
	if s.Distinct {
		b.WriteString("distinct ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		switch {
		case it.Star && len(it.StarTable.Parts) > 0:
			items[i] = it.StarTable.String() + ".*"
		case it.Star:
			items[i] = "*"
		default:
			items[i] = it.Expr.SQL()
			if it.Alias != "" {
				items[i] += " as " + it.Alias
			}
		}
	}
	b.WriteString(strings.Join(items, ", "))
	if s.Into != nil {
		b.WriteString(" into " + s.Into.String())
	}
	if len(s.From) > 0 {
		b.WriteString(" from ")
		refs := make([]string, len(s.From))
		for i, r := range s.From {
			refs[i] = r.Name.String()
			if r.Alias != "" {
				refs[i] += " " + r.Alias
			}
		}
		b.WriteString(strings.Join(refs, ", "))
	}
	if s.Where != nil {
		b.WriteString(" where " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		exprs := make([]string, len(s.GroupBy))
		for i, e := range s.GroupBy {
			exprs[i] = e.SQL()
		}
		b.WriteString(" group by " + strings.Join(exprs, ", "))
	}
	if s.Having != nil {
		b.WriteString(" having " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		exprs := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			exprs[i] = o.Expr.SQL()
			if o.Desc {
				exprs[i] += " desc"
			}
		}
		b.WriteString(" order by " + strings.Join(exprs, ", "))
	}
	return b.String()
}

func (s *Update) SQL() string {
	sets := make([]string, len(s.Set))
	for i, a := range s.Set {
		sets[i] = a.Column + " = " + a.Value.SQL()
	}
	out := fmt.Sprintf("update %s set %s", s.Table, strings.Join(sets, ", "))
	if s.Where != nil {
		out += " where " + s.Where.SQL()
	}
	return out
}

func (s *Delete) SQL() string {
	out := "delete " + s.Table.String()
	if s.Where != nil {
		out += " where " + s.Where.SQL()
	}
	return out
}

func (s *CreateTrigger) SQL() string {
	return fmt.Sprintf("create trigger %s on %s for %s as\n%s",
		s.Name, s.Table, s.Operation, bodySQL(s.Body))
}

func (s *DropTrigger) SQL() string { return "drop trigger " + s.Name.String() }

func (s *CreateProcedure) SQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "create procedure %s", s.Name)
	if len(s.Params) > 0 {
		params := make([]string, len(s.Params))
		for i, p := range s.Params {
			params[i] = p.Name + " " + p.Type.String()
		}
		b.WriteString(" " + strings.Join(params, ", "))
	}
	b.WriteString(" as\n" + bodySQL(s.Body))
	return b.String()
}

func (s *DropProcedure) SQL() string { return "drop procedure " + s.Name.String() }

func (s *Execute) SQL() string {
	out := "execute " + s.Proc.String()
	if len(s.Args) > 0 {
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = a.SQL()
		}
		out += " " + strings.Join(args, ", ")
	}
	return out
}

func (s *Print) SQL() string { return "print " + s.Value.SQL() }

func (*BeginTran) SQL() string    { return "begin transaction" }
func (*CommitTran) SQL() string   { return "commit transaction" }
func (*RollbackTran) SQL() string { return "rollback transaction" }

func bodySQL(body []Statement) string {
	lines := make([]string, len(body))
	for i, st := range body {
		lines[i] = st.SQL()
	}
	return strings.Join(lines, "\n")
}

func (e *Literal) SQL() string { return e.Value.SQLLiteral() }

func (e *ColumnRef) SQL() string {
	if len(e.Qualifier.Parts) > 0 {
		return e.Qualifier.String() + "." + e.Name
	}
	return e.Name
}

func (e *BinaryExpr) SQL() string {
	return fmt.Sprintf("(%s %s %s)", e.L.SQL(), e.Op, e.R.SQL())
}

func (e *UnaryExpr) SQL() string {
	if e.Op == "not" {
		return "(not " + e.E.SQL() + ")"
	}
	return "(-" + e.E.SQL() + ")"
}

func (e *FuncCall) SQL() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.SQL()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func (e *IsNull) SQL() string {
	if e.Negate {
		return "(" + e.E.SQL() + " is not null)"
	}
	return "(" + e.E.SQL() + " is null)"
}

func (e *InList) SQL() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.SQL()
	}
	op := "in"
	if e.Negate {
		op = "not in"
	}
	return fmt.Sprintf("(%s %s (%s))", e.E.SQL(), op, strings.Join(items, ", "))
}
