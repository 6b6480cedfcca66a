package sqltypes

import (
	"fmt"
	"strings"
)

// Column describes one column of a schema.
type Column struct {
	Name     string
	Type     Type
	Nullable bool
}

// Schema is an ordered list of columns. Column name lookup is
// case-insensitive, matching the server's identifier rules.
type Schema struct {
	Columns []Column
}

// NewSchema builds a Schema from columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the column at position i.
func (s *Schema) Column(i int) Column { return s.Columns[i] }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// AddColumn appends a column; it fails if the name already exists.
func (s *Schema) AddColumn(c Column) error {
	if s.Index(c.Name) >= 0 {
		return fmt.Errorf("column %q already exists", c.Name)
	}
	s.Columns = append(s.Columns, c)
	return nil
}

// String renders the schema as "(name type, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		if !c.Nullable {
			b.WriteString(" not null")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one tuple of values, positionally aligned with a Schema.
type Row []Value

// Clone returns a copy of the row. Values are immutable so a shallow copy
// suffices.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for diagnostics.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.AsString()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether two rows are value-wise Equal.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// ResultSet is a fully materialized query result: a schema plus rows. It is
// the unit the engine returns, the wire protocol transports, and the client
// library exposes.
type ResultSet struct {
	// Schema is read-only: the engine hands one schema to every run of a
	// statement whose output columns keep their types.
	Schema *Schema
	Rows   []Row
	// Messages carries informational output (PRINT statements, trigger
	// chatter) produced while the statement ran, in order.
	Messages []string
	// RowsAffected is the DML count reported in the DONE token.
	RowsAffected int
}

// Format renders the result set as an aligned text table, used by the
// interactive client and the figure-regeneration harness.
func (rs *ResultSet) Format() string {
	if rs == nil || rs.Schema == nil || rs.Schema.Len() == 0 {
		return ""
	}
	names := rs.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(rs.Rows))
	for ri, row := range rs.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.AsString()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeLine := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(p)
			if pad := widths[i] - len(p); pad > 0 && i < len(parts)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeLine(names)
	rules := make([]string, len(names))
	for i := range rules {
		rules[i] = strings.Repeat("-", widths[i])
	}
	writeLine(rules)
	for _, row := range cells {
		writeLine(row)
	}
	return b.String()
}
