package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Value is a single SQL value. The zero Value is NULL.
//
// Values are immutable once constructed; the engine copies rows rather than
// mutating values in place. A Value is 32 bytes: the kind, one 64-bit word
// and a string header. The word holds INT and BIT as is, FLOAT as its IEEE
// 754 bits and DATETIME as Unix milliseconds (a UTC instant, the engine's
// datetime resolution).
type Value struct {
	kind Kind
	n    int64  // KindInt, KindBit, KindFloat (bits), KindDateTime (Unix ms)
	s    string // character kinds
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: int64(math.Float64bits(v))} }

// NewBit returns a BIT value (normalized to 0 or 1).
func NewBit(b bool) Value {
	if b {
		return Value{kind: KindBit, n: 1}
	}
	return Value{kind: KindBit}
}

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{kind: KindVarChar, s: s} }

// NewText returns a TEXT value.
func NewText(s string) Value { return Value{kind: KindText, s: s} }

// NewDateTime returns a DATETIME value: t's instant truncated to millisecond
// precision, the engine's datetime resolution. The location is not kept;
// Time returns the instant in UTC.
func NewDateTime(t time.Time) Value {
	return Value{kind: KindDateTime, n: t.UnixMilli()}
}

// Kind returns the runtime kind of the value (KindNull for NULL).
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the value as an int64. It panics unless the value is INT or
// BIT; use AsInt for coercion.
func (v Value) Int() int64 {
	if v.kind != KindInt && v.kind != KindBit {
		panic(fmt.Sprintf("sqltypes: Int() on %s value", v.kind))
	}
	return v.n
}

// Float returns the value as a float64. It panics unless the value is
// FLOAT; use AsFloat for coercion.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("sqltypes: Float() on %s value", v.kind))
	}
	return v.float()
}

func (v Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// Str returns the character payload. It panics on non-character values;
// use AsString for display conversion.
func (v Value) Str() string {
	if !(Type{Kind: v.kind}).IsCharacter() {
		panic(fmt.Sprintf("sqltypes: Str() on %s value", v.kind))
	}
	return v.s
}

// Time returns the DATETIME payload as a UTC time. It panics on other kinds.
func (v Value) Time() time.Time {
	if v.kind != KindDateTime {
		panic(fmt.Sprintf("sqltypes: Time() on %s value", v.kind))
	}
	return v.time()
}

func (v Value) time() time.Time { return time.UnixMilli(v.n).UTC() }

// AsInt coerces the value to an integer. NULL coerces to (0, false).
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindBit:
		return v.n, true
	case KindFloat:
		return int64(v.float()), true
	case KindChar, KindVarChar, KindText:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n, err == nil
	default:
		return 0, false
	}
}

// AsFloat coerces the value to a float. NULL coerces to (0, false).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBit:
		return float64(v.n), true
	case KindFloat:
		return v.float(), true
	case KindChar, KindVarChar, KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsBool coerces the value to a truth value using SQL conventions
// (non-zero numerics are true). NULL coerces to (false, false).
func (v Value) AsBool() (bool, bool) {
	switch v.kind {
	case KindInt, KindBit:
		return v.n != 0, true
	case KindFloat:
		return v.float() != 0, true
	default:
		return false, false
	}
}

// AsString renders the value for display or protocol transport. NULL
// renders as "NULL".
func (v Value) AsString() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt, KindBit:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindChar, KindVarChar, KindText:
		return v.s
	case KindDateTime:
		return v.time().Format(DateTimeFormat)
	default:
		return fmt.Sprintf("<%s>", v.kind)
	}
}

// AppendString appends AsString's rendering of the value to b, allocating
// only when b must grow.
func (v Value) AppendString(b []byte) []byte {
	switch v.kind {
	case KindInt, KindBit:
		return strconv.AppendInt(b, v.n, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.float(), 'g', -1, 64)
	case KindChar, KindVarChar, KindText:
		return append(b, v.s...)
	case KindDateTime:
		return v.time().AppendFormat(b, DateTimeFormat)
	default:
		return append(b, v.AsString()...)
	}
}

// SQLLiteral renders the value as a SQL literal that re-parses to an equal
// value; used by the agent's code generator and the persistence codec.
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindChar, KindVarChar, KindText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDateTime:
		return "'" + v.time().Format(DateTimeFormat) + "'"
	default:
		return v.AsString()
	}
}

// Equal reports strict equality (same kind class and payload). Two NULLs
// are Equal (useful for tests), although SQL comparison treats NULL = NULL
// as unknown; see Compare.
func (v Value) Equal(o Value) bool {
	c, ok := v.Compare(o)
	if v.IsNull() && o.IsNull() {
		return true
	}
	return ok && c == 0
}

// EqualChars is the direct equality test of two character values: ok
// reports whether v and o are both character values, and equal whether
// their strings are the same, which is what Compare reports for them.
func (v Value) EqualChars(o Value) (equal, ok bool) {
	if !(Type{Kind: v.kind}).IsCharacter() || !(Type{Kind: o.kind}).IsCharacter() {
		return false, false
	}
	return v.s == o.s, true
}

// Compare orders two values. The second result is false when the
// comparison is unknown (either side NULL, or incomparable kinds), matching
// SQL three-valued logic. INT and BIT compare exactly as int64; a pair with
// a FLOAT side compares as float64, where NaN is equal to every number.
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		return 0, false
	}
	vt, ot := Type{Kind: v.kind}, Type{Kind: o.kind}
	switch {
	case isInteger(v.kind) && isInteger(o.kind), v.kind == KindDateTime && o.kind == KindDateTime:
		return cmpOrdered(v.n, o.n), true
	case vt.IsNumeric() && ot.IsNumeric():
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return cmpOrdered(a, b), true
	case vt.IsCharacter() && ot.IsCharacter():
		return strings.Compare(v.s, o.s), true
	case vt.IsCharacter() && ot.IsNumeric(), vt.IsNumeric() && ot.IsCharacter():
		// The original server implicitly converts; we convert the string
		// side to a number when possible.
		a, aok := v.AsFloat()
		b, bok := o.AsFloat()
		if !aok || !bok {
			return 0, false
		}
		return cmpOrdered(a, b), true
	default:
		return 0, false
	}
}

func isInteger(k Kind) bool { return k == KindInt || k == KindBit }

// cmpOrdered is -1, 0 or 1 as a is below, equal to or above b; unordered
// floats (NaN) are 0.
func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Convert coerces the value to the given column type, applying CHAR/VARCHAR
// truncation to the declared length as the original server does. NULL
// converts to NULL for any type.
func (v Value) Convert(t Type) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch t.Kind {
	case KindInt:
		n, ok := v.AsInt()
		if !ok {
			return Null, fmt.Errorf("cannot convert %s %q to int", v.kind, v.AsString())
		}
		return NewInt(n), nil
	case KindFloat:
		f, ok := v.AsFloat()
		if !ok {
			return Null, fmt.Errorf("cannot convert %s %q to float", v.kind, v.AsString())
		}
		return NewFloat(f), nil
	case KindBit:
		n, ok := v.AsInt()
		if !ok {
			return Null, fmt.Errorf("cannot convert %s %q to bit", v.kind, v.AsString())
		}
		return NewBit(n != 0), nil
	case KindChar, KindVarChar:
		s := v.AsString()
		if t.Length > 0 && len(s) > t.Length {
			s = s[:t.Length]
		}
		return Value{kind: t.Kind, s: s}, nil
	case KindText:
		return NewText(v.AsString()), nil
	case KindDateTime:
		switch v.kind {
		case KindDateTime:
			return v, nil
		case KindChar, KindVarChar, KindText:
			tm, err := ParseDateTime(v.s)
			if err != nil {
				return Null, err
			}
			return NewDateTime(tm), nil
		default:
			return Null, fmt.Errorf("cannot convert %s to datetime", v.kind)
		}
	default:
		return Null, fmt.Errorf("cannot convert to %s", t)
	}
}

// Arith applies a binary arithmetic operator (+ - * / %) to two values with
// SQL semantics: NULL-propagating, int/int stays int ('/' truncates),
// string '+' concatenates.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	at, bt := Type{Kind: a.kind}, Type{Kind: b.kind}
	if op == '+' && (at.IsCharacter() || bt.IsCharacter()) {
		return NewString(a.AsString() + b.AsString()), nil
	}
	if !at.IsNumeric() || !bt.IsNumeric() {
		return Null, fmt.Errorf("operator %c not defined for %s and %s", op, a.kind, b.kind)
	}
	if isInteger(a.kind) && isInteger(b.kind) {
		x, y := a.n, b.n
		switch op {
		case '+':
			return NewInt(x + y), nil
		case '-':
			return NewInt(x - y), nil
		case '*':
			return NewInt(x * y), nil
		case '/':
			if y == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewInt(x / y), nil
		case '%':
			if y == 0 {
				return Null, fmt.Errorf("modulo by zero")
			}
			return NewInt(x % y), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case '+':
		return NewFloat(x + y), nil
	case '-':
		return NewFloat(x - y), nil
	case '*':
		return NewFloat(x * y), nil
	case '/':
		if y == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewFloat(x / y), nil
	case '%':
		if y == 0 {
			return Null, fmt.Errorf("modulo by zero")
		}
		return NewFloat(math.Mod(x, y)), nil
	}
	return Null, fmt.Errorf("unknown operator %c", op)
}

// Like implements the SQL LIKE operator with % and _ wildcards.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative matcher with backtracking over the last '%' seen.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || equalFoldByte(p[pi], s[si])):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func equalFoldByte(a, b byte) bool {
	if 'A' <= a && a <= 'Z' {
		a += 'a' - 'A'
	}
	if 'A' <= b && b <= 'Z' {
		b += 'a' - 'A'
	}
	return a == b
}
