package engine

import (
	"fmt"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// frame describes one FROM table of a plan while its expressions are
// bound. A frame with an alias is referenced by the alias alone;
// otherwise by its bare table name, owner.table when the FROM name has an
// owner, and db.owner.table when it has a database or an owner (the
// session's database filling in).
type frame struct {
	alias            string
	db, owner, table string
	schema           *sqltypes.Schema
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
// column-resolution rule of the engine, and it runs only while an
// expression is bound (bind), so no row evaluation resolves a name.
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

// exprOp is what a bound expression node does.
type exprOp uint8

const (
	opLiteral   exprOp = iota // lit's value
	opColumn                  // the value at position col of frame's row
	opVar                     // the variable key
	opCompare                 // =, <>, <, <=, >, >= of args[0] and args[1]
	opArith                   // +, -, *, /, % of args[0] and args[1]
	opLike                    // args[0] LIKE args[1]
	opAnd                     // args[0] AND args[1], three-valued
	opOr                      // args[0] OR args[1], three-valued
	opNot                     // NOT args[0]
	opNeg                     // -args[0]
	opIsNull                  // args[0] IS [NOT] NULL
	opIn                      // args[0] [NOT] IN args[1:]
	opFunc                    // the scalar function name of args
	opAggregate               // the aggregate name of args, or count(*)
	opFail                    // err: a name that did not resolve
)

// expr is an expression bound to a plan's frames, the only form the
// engine evaluates. bind builds it once per plan from the parsed
// expression: a column reference becomes its frame and position, a
// variable its lower-cased name, and a literal a pointer to its parsed
// node, whose value a template rebinds before every run. Evaluation
// reads rows and values only, never a name.
type expr struct {
	op    exprOp
	neg   bool              // IS NOT NULL, NOT IN
	star  bool              // count(*)
	agg   bool              // an aggregate call or an expression holding one
	bin   sqlparse.BinaryOp // opCompare, opArith, opLike
	frame int               // opColumn
	col   int               // opColumn
	lit   *sqlparse.Literal // opLiteral
	key   string            // opVar: the lower-cased name
	name  string            // opVar: the name as written; opFunc, opAggregate: the function
	args  []*expr
	err   error // opFail
}

// bind compiles e against frames (nil for an expression outside a FROM:
// INSERT VALUES, PRINT, EXECUTE arguments). A column reference that does
// not resolve becomes a node that fails with resolve's error when it is
// evaluated; err is the first such error, in evaluation order, for the
// callers that report it when the plan is built. bind(nil) is nil.
func bind(e sqlparse.Expr, frames []*frame) (x *expr, err error) {
	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	var walk func(e sqlparse.Expr) *expr
	operands := func(es ...sqlparse.Expr) []*expr {
		out := make([]*expr, len(es))
		for i, a := range es {
			out[i] = walk(a)
		}
		return out
	}
	walk = func(e sqlparse.Expr) *expr {
		var x *expr
		switch e := e.(type) {
		case *sqlparse.Literal:
			return &expr{op: opLiteral, lit: e}
		case *sqlparse.ColumnRef:
			if strings.HasPrefix(e.Name, "@") {
				return &expr{op: opVar, key: strings.ToLower(e.Name), name: e.Name}
			}
			f, col, rerr := resolve(e, frames)
			if rerr != nil {
				note(rerr)
				return &expr{op: opFail, err: rerr}
			}
			return &expr{op: opColumn, frame: f, col: col}
		case *sqlparse.BinaryExpr:
			x = &expr{bin: e.Op, args: operands(e.L, e.R)}
			switch e.Op {
			case sqlparse.OpAnd:
				x.op = opAnd
			case sqlparse.OpOr:
				x.op = opOr
			case sqlparse.OpLike:
				x.op = opLike
			case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
				x.op = opCompare
			case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv, sqlparse.OpMod:
				x.op = opArith
			default:
				x.op, x.err = opFail, fmt.Errorf("engine: unsupported operator %q", e.Op)
			}
		case *sqlparse.UnaryExpr:
			x = &expr{args: operands(e.E)}
			switch e.Op {
			case "not":
				x.op = opNot
			case "-":
				x.op = opNeg
			default:
				x.op, x.err = opFail, fmt.Errorf("engine: unsupported unary %q", e.Op)
			}
		case *sqlparse.FuncCall:
			x = &expr{op: opFunc, name: e.Name, star: e.Star, args: operands(e.Args...)}
			if aggregateFuncs[e.Name] {
				x.op, x.agg = opAggregate, true
			}
		case *sqlparse.IsNull:
			x = &expr{op: opIsNull, neg: e.Negate, args: operands(e.E)}
		case *sqlparse.InList:
			x = &expr{op: opIn, neg: e.Negate, args: append(operands(e.E), operands(e.List...)...)}
		default:
			return &expr{op: opFail, err: fmt.Errorf("engine: unsupported expression %T", e)}
		}
		for _, a := range x.args {
			x.agg = x.agg || a.agg
		}
		return x
	}
	if e == nil {
		return nil, nil
	}
	x = walk(e)
	return x, err
}

// bindAll binds each of es against frames, reporting the first unknown
// column.
func bindAll(es []sqlparse.Expr, frames []*frame) ([]*expr, error) {
	var out []*expr
	var first error
	for _, e := range es {
		x, err := bind(e, frames)
		if first == nil {
			first = err
		}
		out = append(out, x)
	}
	return out, first
}

// eval evaluates a bound expression on row, the current row of each of
// its plan's frames (nil outside a FROM).
func (s *Session) eval(e *expr, row sourceRow) (sqltypes.Value, error) {
	switch e.op {
	case opLiteral:
		return e.lit.Value, nil
	case opColumn:
		return row[e.frame][e.col], nil
	case opVar:
		if v, ok := s.vars[e.key]; ok {
			return v, nil
		}
		return sqltypes.Null, fmt.Errorf("variable %s is not declared", e.name)
	case opAnd, opOr:
		l, err := s.eval(e.args[0], row)
		if err != nil {
			return sqltypes.Null, err
		}
		if v, done := shortcut(e.op, l); done {
			return v, nil
		}
		r, err := s.eval(e.args[1], row)
		if err != nil {
			return sqltypes.Null, err
		}
		return logical(e.op, l, r), nil
	case opCompare, opArith, opLike:
		l, err := s.eval(e.args[0], row)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := s.eval(e.args[1], row)
		if err != nil {
			return sqltypes.Null, err
		}
		return binary(e, l, r)
	case opNot, opNeg, opIsNull:
		v, err := s.eval(e.args[0], row)
		if err != nil {
			return sqltypes.Null, err
		}
		return unary(e, v)
	case opIn:
		return s.evalIn(e, row)
	case opFunc:
		var buf [4]sqltypes.Value
		args := buf[:0]
		for _, a := range e.args {
			v, err := s.eval(a, row)
			if err != nil {
				return sqltypes.Null, err
			}
			args = append(args, v)
		}
		return s.call(e.name, args)
	case opAggregate:
		return sqltypes.Null, fmt.Errorf("aggregate %s() is not valid here", e.name)
	default:
		return sqltypes.Null, e.err
	}
}

// compare applies a comparison operator: the values are ordered by
// Value.Compare, and a comparison it cannot make is SQL unknown. An
// equality of two character values is a direct string test.
func compare(op sqlparse.BinaryOp, l, r sqltypes.Value) sqltypes.Value {
	if op == sqlparse.OpEq {
		if equal, ok := l.EqualChars(r); ok {
			return sqltypes.NewBit(equal)
		}
	}
	c, known := l.Compare(r)
	if !known {
		return sqltypes.Null
	}
	var res bool
	switch op {
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
	return sqltypes.NewBit(res)
}

// binary applies an operator of two evaluated operands.
func binary(e *expr, l, r sqltypes.Value) (sqltypes.Value, error) {
	switch e.op {
	case opAnd, opOr:
		return logical(e.op, l, r), nil
	case opCompare:
		return compare(e.bin, l, r), nil
	case opLike:
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBit(sqltypes.Like(l.AsString(), r.AsString())), nil
	}
	return sqltypes.Arith(e.bin[0], l, r)
}

// shortcut reports the value of AND or OR when its left operand l decides
// it alone.
func shortcut(op exprOp, l sqltypes.Value) (sqltypes.Value, bool) {
	lb, known := l.AsBool()
	switch {
	case op == opAnd && known && !lb:
		return sqltypes.NewBit(false), true
	case op == opOr && known && lb:
		return sqltypes.NewBit(true), true
	}
	return sqltypes.Null, false
}

// logical implements AND and OR in three-valued logic.
func logical(op exprOp, l, r sqltypes.Value) sqltypes.Value {
	if v, done := shortcut(op, l); done {
		return v
	}
	lb, lknown := l.AsBool()
	rb, rknown := r.AsBool()
	if op == opAnd {
		switch {
		case rknown && !rb:
			return sqltypes.NewBit(false)
		case lknown && rknown:
			return sqltypes.NewBit(lb && rb)
		default:
			return sqltypes.Null
		}
	}
	switch {
	case rknown && rb:
		return sqltypes.NewBit(true)
	case lknown && rknown:
		return sqltypes.NewBit(lb || rb)
	default:
		return sqltypes.Null
	}
}

// unary applies NOT, unary minus or IS [NOT] NULL to an evaluated operand.
func unary(e *expr, v sqltypes.Value) (sqltypes.Value, error) {
	switch e.op {
	case opIsNull:
		return sqltypes.NewBit(v.IsNull() != e.neg), nil
	case opNot:
		b, known := v.AsBool()
		if !known {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBit(!b), nil
	}
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
}

func (s *Session) evalIn(e *expr, row sourceRow) (sqltypes.Value, error) {
	v, err := s.eval(e.args[0], row)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	sawUnknown := false
	for _, item := range e.args[1:] {
		iv, err := s.eval(item, row)
		if err != nil {
			return sqltypes.Null, err
		}
		c, known := v.Compare(iv)
		if !known {
			sawUnknown = true
			continue
		}
		if c == 0 {
			return sqltypes.NewBit(!e.neg), nil
		}
	}
	if sawUnknown {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBit(e.neg), nil
}

// aggregateFuncs are handled by the SELECT executor, not here.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// call applies the scalar function name to its evaluated arguments.
func (s *Session) call(name string, args []sqltypes.Value) (sqltypes.Value, error) {
	switch name {
	case "getdate":
		return sqltypes.NewDateTime(s.eng.clock()), nil
	case "user_name", "suser_name":
		return sqltypes.NewString(s.user), nil
	case "db_name":
		return sqltypes.NewString(s.db), nil
	case "len", "char_length", "datalength":
		if err := arity(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(int64(len(args[0].AsString()))), nil
	case "lower":
		if err := arity(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToLower(args[0].AsString())), nil
	case "upper":
		if err := arity(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToUpper(args[0].AsString())), nil
	case "abs":
		if err := arity(name, args, 1); err != nil {
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
		if err := arity(name, args, 2); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "convert":
		return sqltypes.Null, fmt.Errorf("convert() requires a type name; use cast-compatible literals instead")
	case "syb_sendmsg":
		return s.sendMsg(args)
	default:
		return sqltypes.Null, fmt.Errorf("unknown function %q", name)
	}
}

// sendMsg implements syb_sendmsg(ip, port, message): send a UDP datagram
// and return 0, matching the Sybase built-in used in Figure 11 of the
// paper to notify the ECA agent's Event Notifier.
func (s *Session) sendMsg(args []sqltypes.Value) (sqltypes.Value, error) {
	if err := arity("syb_sendmsg", args, 3); err != nil {
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

func arity(name string, args []sqltypes.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s() takes %d arguments, got %d", name, n, len(args))
	}
	return nil
}

// truthy evaluates a predicate to a definite boolean (SQL unknown counts
// as false, as in WHERE). A nil predicate holds.
func (s *Session) truthy(e *expr, row sourceRow) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := s.eval(e, row)
	if err != nil {
		return false, err
	}
	b, known := v.AsBool()
	return known && b, nil
}
