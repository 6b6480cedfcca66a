package engine

import (
	"fmt"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// frame binds one table's current row during evaluation. A frame with an
// alias is referenced by the alias alone; otherwise by its bare table name,
// owner.table when the FROM name has an owner, and db.owner.table when it
// has a database or an owner (the session's database filling in).
type frame struct {
	alias            string
	db, owner, table string
	schema           *sqltypes.Schema
	row              sqltypes.Row
}

// matches reports whether the qualifier parts q reference the frame.
// Identifiers compare case-insensitively, as Schema.Index does.
func (f *frame) matches(q []string) bool {
	if f.alias != "" {
		return len(q) == 1 && strings.EqualFold(q[0], f.alias)
	}
	switch len(q) {
	case 1:
		return strings.EqualFold(q[0], f.table)
	case 2:
		return f.owner != "" && strings.EqualFold(q[0], f.owner) && strings.EqualFold(q[1], f.table)
	case 3:
		return f.db != "" && strings.EqualFold(q[0], f.db) && strings.EqualFold(q[1], f.owner) &&
			strings.EqualFold(q[2], f.table)
	}
	return false
}

// newFrame builds a frame for a table reference.
func newFrame(ref sqlparse.TableRef, schema *sqltypes.Schema, currentDB string) *frame {
	if ref.Alias != "" {
		return &frame{alias: ref.Alias, schema: schema}
	}
	name := ref.Name
	f := &frame{db: name.Database(), owner: name.Owner(), table: name.Name(), schema: schema}
	if f.db == "" && f.owner != "" {
		f.db = currentDB
	}
	return f
}

// resolve finds the frame and column position a column reference names:
// a qualified reference in the first frame its qualifier matches, an
// unqualified one in the only frame with such a column. It is the one
// column-resolution rule of the engine — evaluation, compile-time
// validation and join planning all use it — and allocates only for an
// error.
func resolve(e *sqlparse.ColumnRef, frames []*frame) (f, col int, err error) {
	if len(e.Qualifier.Parts) > 0 {
		for i, fr := range frames {
			if !fr.matches(e.Qualifier.Parts) {
				continue
			}
			if col = fr.schema.Index(e.Name); col >= 0 {
				return i, col, nil
			}
			return 0, 0, fmt.Errorf("column %s not found in %s", e.Name, e.Qualifier)
		}
		return 0, 0, fmt.Errorf("unknown table or alias %q", e.Qualifier)
	}
	f = -1
	for i, fr := range frames {
		if c := fr.schema.Index(e.Name); c >= 0 {
			if f >= 0 {
				return 0, 0, fmt.Errorf("ambiguous column %q", e.Name)
			}
			f, col = i, c
		}
	}
	if f < 0 {
		return 0, 0, fmt.Errorf("unknown column %q", e.Name)
	}
	return f, col, nil
}

// eval evaluates an expression. frames may be nil for standalone
// expressions (INSERT VALUES, PRINT).
func (s *Session) eval(e sqlparse.Expr, frames []*frame) (sqltypes.Value, error) {
	switch e := e.(type) {
	case *sqlparse.Literal:
		return e.Value, nil
	case *sqlparse.ColumnRef:
		return s.evalColumnRef(e, frames)
	case *sqlparse.BinaryExpr:
		return s.evalBinary(e, frames)
	case *sqlparse.UnaryExpr:
		return s.evalUnary(e, frames)
	case *sqlparse.FuncCall:
		return s.evalFunc(e, frames)
	case *sqlparse.IsNull:
		v, err := s.eval(e.E, frames)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBit(v.IsNull() != e.Negate), nil
	case *sqlparse.InList:
		return s.evalInList(e, frames)
	default:
		return sqltypes.Null, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

func (s *Session) evalColumnRef(e *sqlparse.ColumnRef, frames []*frame) (sqltypes.Value, error) {
	// Procedure parameter / local variable.
	if strings.HasPrefix(e.Name, "@") {
		if s.vars != nil {
			if v, ok := s.vars[strings.ToLower(e.Name)]; ok {
				return v, nil
			}
		}
		return sqltypes.Null, fmt.Errorf("variable %s is not declared", e.Name)
	}
	f, col, err := resolve(e, frames)
	if err != nil {
		return sqltypes.Null, err
	}
	return frames[f].row[col], nil
}

func (s *Session) evalBinary(e *sqlparse.BinaryExpr, frames []*frame) (sqltypes.Value, error) {
	switch e.Op {
	case sqlparse.OpAnd, sqlparse.OpOr:
		return s.evalLogical(e, frames)
	}
	l, err := s.eval(e.L, frames)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := s.eval(e.R, frames)
	if err != nil {
		return sqltypes.Null, err
	}
	switch e.Op {
	case sqlparse.OpAdd:
		return sqltypes.Arith('+', l, r)
	case sqlparse.OpSub:
		return sqltypes.Arith('-', l, r)
	case sqlparse.OpMul:
		return sqltypes.Arith('*', l, r)
	case sqlparse.OpDiv:
		return sqltypes.Arith('/', l, r)
	case sqlparse.OpMod:
		return sqltypes.Arith('%', l, r)
	case sqlparse.OpLike:
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBit(sqltypes.Like(l.AsString(), r.AsString())), nil
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		c, known := l.Compare(r)
		if !known {
			return sqltypes.Null, nil // SQL unknown
		}
		var res bool
		switch e.Op {
		case sqlparse.OpEq:
			res = c == 0
		case sqlparse.OpNe:
			res = c != 0
		case sqlparse.OpLt:
			res = c < 0
		case sqlparse.OpLe:
			res = c <= 0
		case sqlparse.OpGt:
			res = c > 0
		case sqlparse.OpGe:
			res = c >= 0
		}
		return sqltypes.NewBit(res), nil
	default:
		return sqltypes.Null, fmt.Errorf("engine: unsupported operator %q", e.Op)
	}
}

// evalLogical implements AND/OR with three-valued logic and shortcuts.
func (s *Session) evalLogical(e *sqlparse.BinaryExpr, frames []*frame) (sqltypes.Value, error) {
	l, err := s.eval(e.L, frames)
	if err != nil {
		return sqltypes.Null, err
	}
	lb, lknown := l.AsBool()
	if e.Op == sqlparse.OpAnd && lknown && !lb {
		return sqltypes.NewBit(false), nil
	}
	if e.Op == sqlparse.OpOr && lknown && lb {
		return sqltypes.NewBit(true), nil
	}
	r, err := s.eval(e.R, frames)
	if err != nil {
		return sqltypes.Null, err
	}
	rb, rknown := r.AsBool()
	if e.Op == sqlparse.OpAnd {
		switch {
		case rknown && !rb:
			return sqltypes.NewBit(false), nil
		case lknown && rknown:
			return sqltypes.NewBit(lb && rb), nil
		default:
			return sqltypes.Null, nil
		}
	}
	switch {
	case rknown && rb:
		return sqltypes.NewBit(true), nil
	case lknown && rknown:
		return sqltypes.NewBit(lb || rb), nil
	default:
		return sqltypes.Null, nil
	}
}

func (s *Session) evalUnary(e *sqlparse.UnaryExpr, frames []*frame) (sqltypes.Value, error) {
	v, err := s.eval(e.E, frames)
	if err != nil {
		return sqltypes.Null, err
	}
	switch e.Op {
	case "not":
		b, known := v.AsBool()
		if !known {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBit(!b), nil
	case "-":
		switch v.Kind() {
		case sqltypes.KindInt, sqltypes.KindBit:
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.Float()), nil
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		default:
			return sqltypes.Null, fmt.Errorf("cannot negate %s", v.Kind())
		}
	default:
		return sqltypes.Null, fmt.Errorf("engine: unsupported unary %q", e.Op)
	}
}

func (s *Session) evalInList(e *sqlparse.InList, frames []*frame) (sqltypes.Value, error) {
	v, err := s.eval(e.E, frames)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	sawUnknown := false
	for _, item := range e.List {
		iv, err := s.eval(item, frames)
		if err != nil {
			return sqltypes.Null, err
		}
		c, known := v.Compare(iv)
		if !known {
			sawUnknown = true
			continue
		}
		if c == 0 {
			return sqltypes.NewBit(!e.Negate), nil
		}
	}
	if sawUnknown {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBit(e.Negate), nil
}

// aggregateFuncs are handled by the SELECT executor, not here.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func (s *Session) evalFunc(e *sqlparse.FuncCall, frames []*frame) (sqltypes.Value, error) {
	if aggregateFuncs[e.Name] {
		return sqltypes.Null, fmt.Errorf("aggregate %s() is not valid here", e.Name)
	}
	args := make([]sqltypes.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := s.eval(a, frames)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	switch e.Name {
	case "getdate":
		return sqltypes.NewDateTime(s.eng.clock()), nil
	case "user_name", "suser_name":
		return sqltypes.NewString(s.user), nil
	case "db_name":
		return sqltypes.NewString(s.db), nil
	case "len", "char_length", "datalength":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(int64(len(args[0].AsString()))), nil
	case "lower":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToLower(args[0].AsString())), nil
	case "upper":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToUpper(args[0].AsString())), nil
	case "abs":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		switch args[0].Kind() {
		case sqltypes.KindInt, sqltypes.KindBit:
			n := args[0].Int()
			if n < 0 {
				n = -n
			}
			return sqltypes.NewInt(n), nil
		case sqltypes.KindFloat:
			f := args[0].Float()
			if f < 0 {
				f = -f
			}
			return sqltypes.NewFloat(f), nil
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		default:
			return sqltypes.Null, fmt.Errorf("abs() on %s", args[0].Kind())
		}
	case "isnull":
		// isnull(expr, replacement), the Sybase COALESCE-of-two.
		if err := arity(e, args, 2); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "convert":
		return sqltypes.Null, fmt.Errorf("convert() requires a type name; use cast-compatible literals instead")
	case "syb_sendmsg":
		return s.evalSendMsg(e, args)
	default:
		return sqltypes.Null, fmt.Errorf("unknown function %q", e.Name)
	}
}

// evalSendMsg implements syb_sendmsg(ip, port, message): send a UDP
// datagram and return 0, matching the Sybase built-in used in Figure 11 of
// the paper to notify the ECA agent's Event Notifier.
func (s *Session) evalSendMsg(e *sqlparse.FuncCall, args []sqltypes.Value) (sqltypes.Value, error) {
	if err := arity(e, args, 3); err != nil {
		return sqltypes.Null, err
	}
	host := args[0].AsString()
	port, ok := args[1].AsInt()
	if !ok {
		return sqltypes.Null, fmt.Errorf("syb_sendmsg: bad port %v", args[1])
	}
	msg := args[2].AsString()
	if err := s.eng.notify(host, int(port), msg); err != nil {
		// As in the original, a lost datagram does not abort the
		// transaction; report failure through the return value.
		return sqltypes.NewInt(1), nil
	}
	return sqltypes.NewInt(0), nil
}

func arity(e *sqlparse.FuncCall, args []sqltypes.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s() takes %d arguments, got %d", e.Name, n, len(args))
	}
	return nil
}

// validateColumns checks that every column reference in e resolves against
// the given frames, so that unknown columns are reported even when a query
// matches zero rows (as the original server does at compile time).
func (s *Session) validateColumns(e sqlparse.Expr, frames []*frame) error {
	switch e := e.(type) {
	case nil, *sqlparse.Literal:
		return nil
	case *sqlparse.ColumnRef:
		if strings.HasPrefix(e.Name, "@") {
			return nil // variables are checked at evaluation time
		}
		_, _, err := resolve(e, frames)
		return err
	case *sqlparse.BinaryExpr:
		if err := s.validateColumns(e.L, frames); err != nil {
			return err
		}
		return s.validateColumns(e.R, frames)
	case *sqlparse.UnaryExpr:
		return s.validateColumns(e.E, frames)
	case *sqlparse.FuncCall:
		for _, a := range e.Args {
			if err := s.validateColumns(a, frames); err != nil {
				return err
			}
		}
		return nil
	case *sqlparse.IsNull:
		return s.validateColumns(e.E, frames)
	case *sqlparse.InList:
		if err := s.validateColumns(e.E, frames); err != nil {
			return err
		}
		for _, x := range e.List {
			if err := s.validateColumns(x, frames); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// truthy evaluates a predicate expression to a definite boolean (SQL
// unknown counts as false, as in WHERE).
func (s *Session) truthy(e sqlparse.Expr, frames []*frame) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := s.eval(e, frames)
	if err != nil {
		return false, err
	}
	b, known := v.AsBool()
	return known && b, nil
}
