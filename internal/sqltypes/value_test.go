package sqltypes

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestNullSemantics(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null is not null")
	}
	if _, ok := Null.Compare(NewInt(1)); ok {
		t.Error("NULL comparison should be unknown")
	}
	if _, ok := NewInt(1).Compare(Null); ok {
		t.Error("comparison with NULL should be unknown")
	}
	got, err := Arith('+', Null, NewInt(3))
	if err != nil || !got.IsNull() {
		t.Errorf("NULL + 3 = %v, %v; want NULL", got, err)
	}
	if Null.AsString() != "NULL" || Null.SQLLiteral() != "NULL" {
		t.Error("NULL rendering wrong")
	}
	v, err := Null.Convert(Int)
	if err != nil || !v.IsNull() {
		t.Error("NULL should convert to NULL")
	}
}

func TestValueAccessors(t *testing.T) {
	if NewInt(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("Str accessor")
	}
	now := time.Now()
	if !NewDateTime(now).Time().Equal(now.Truncate(time.Millisecond)) {
		t.Error("Time accessor should truncate to ms")
	}
	if NewBit(true).Int() != 1 || NewBit(false).Int() != 0 {
		t.Error("Bit normalization")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Float on int", func() { NewInt(1).Float() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Time on string", func() { NewString("x").Time() })
}

func TestCoercions(t *testing.T) {
	if n, ok := NewString(" 42 ").AsInt(); !ok || n != 42 {
		t.Errorf("string->int coercion: %v %v", n, ok)
	}
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Errorf("int->float coercion: %v %v", f, ok)
	}
	if _, ok := NewString("abc").AsInt(); ok {
		t.Error("garbage string coerced to int")
	}
	if b, ok := NewInt(5).AsBool(); !ok || !b {
		t.Error("nonzero int should be true")
	}
	if b, ok := NewFloat(0).AsBool(); !ok || b {
		t.Error("zero float should be false")
	}
	if _, ok := NewString("x").AsBool(); ok {
		t.Error("string has no truth value")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewString("abc"), NewString("abd"), -1},
		{NewString("10"), NewInt(9), 1}, // implicit numeric conversion
		{NewDateTime(time.Unix(100, 0)), NewDateTime(time.Unix(200, 0)), -1},
	}
	for _, c := range cases {
		got, ok := c.a.Compare(c.b)
		if !ok || got != c.want {
			t.Errorf("Compare(%v, %v) = %d,%v; want %d", c.a, c.b, got, ok, c.want)
		}
	}
	if _, ok := NewString("x").Compare(NewInt(1)); ok {
		t.Error("non-numeric string vs int should be unknown")
	}
	if _, ok := NewDateTime(time.Now()).Compare(NewInt(1)); ok {
		t.Error("datetime vs int should be unknown")
	}
}

// TestValueSize pins the stored layout: kind, one 64-bit word and a string
// header, 32 bytes on a 64-bit platform. Every stored cell pays this size.
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 32-byte layout is a 64-bit figure")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestCompareIntegersExact: INT and BIT pairs compare as int64, so
// integers that one float64 cannot tell apart (above 2^53) still order;
// a pair with a FLOAT side compares as float64.
func TestCompareIntegersExact(t *testing.T) {
	const big = 1 << 53 // 9007199254740992; big+1 has no float64 of its own
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(big + 1), NewInt(big), 1},
		{NewInt(big), NewInt(big + 1), -1},
		{NewInt(big + 1), NewInt(big + 1), 0},
		{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), 1},
		{NewInt(math.MinInt64), NewInt(math.MinInt64 + 1), -1},
		{NewInt(-big - 1), NewInt(-big), -1},
		{NewBit(true), NewInt(1), 0},
		{NewBit(false), NewInt(1), -1},
		{NewInt(big + 1), NewFloat(big), 0}, // FLOAT side: float64 comparison
		{NewFloat(big), NewInt(big + 1), 0},
		{NewInt(3), NewFloat(2.5), 1},
	}
	for _, c := range cases {
		got, ok := c.a.Compare(c.b)
		if !ok || got != c.want {
			t.Errorf("Compare(%v %s, %v %s) = %d,%v; want %d", c.a.AsString(), c.a.Kind(), c.b.AsString(), c.b.Kind(), got, ok, c.want)
		}
	}
	if NewInt(big + 1).Equal(NewInt(big)) {
		t.Error("2^53+1 Equal 2^53")
	}
}

// TestDateTimeInstant pins the DATETIME contract: a value is a UTC instant
// at millisecond resolution, so equal instants from any zone compare
// equal, and every rendering reads in UTC.
func TestDateTimeInstant(t *testing.T) {
	at := time.Date(1999, 3, 23, 9, 30, 0, 125_600_000, time.UTC)
	zones := []*time.Location{time.UTC, time.FixedZone("minus2", -2*3600), time.FixedZone("plus5:30", 5*3600+1800), time.Local}
	for _, za := range zones {
		a := NewDateTime(at.In(za))
		for _, zb := range zones {
			b := NewDateTime(at.In(zb))
			if c, ok := a.Compare(b); !ok || c != 0 || !a.Equal(b) {
				t.Errorf("%s vs %s: Compare = %d,%v, Equal = %v; want equal", za, zb, c, ok, a.Equal(b))
			}
		}
		if got := a.Time(); got.Location() != time.UTC || !got.Equal(at.Truncate(time.Millisecond)) {
			t.Errorf("%s: Time() = %v, want %v in UTC", za, got, at.Truncate(time.Millisecond))
		}
		if got, want := a.AsString(), "1999-03-23 09:30:00.125"; got != want {
			t.Errorf("%s: AsString() = %q, want %q", za, got, want)
		}
		if got, want := a.SQLLiteral(), "'1999-03-23 09:30:00.125'"; got != want {
			t.Errorf("%s: SQLLiteral() = %q, want %q", za, got, want)
		}
	}
	later := NewDateTime(at.Add(time.Millisecond).In(time.FixedZone("far", 12*3600)))
	if c, ok := NewDateTime(at).Compare(later); !ok || c != -1 {
		t.Errorf("Compare with an instant 1 ms later = %d,%v; want -1", c, ok)
	}
	// Before 1970 the instant still truncates toward the past.
	pre := time.Date(1969, 12, 31, 23, 59, 59, 999_500_000, time.UTC)
	if got := NewDateTime(pre).Time(); !got.Equal(pre.Truncate(time.Millisecond)) || got.UnixMilli() != -1 {
		t.Errorf("NewDateTime(%v).Time() = %v (%d ms), want %v (-1 ms)", pre, got, got.UnixMilli(), pre.Truncate(time.Millisecond))
	}
}

// TestAllocsCompare: comparing, testing and reading values allocates
// nothing; the engine does all three for every row a WHERE sees. (A
// character value that must convert to a number is left out: a string
// that does not parse allocates strconv's error.)
func TestAllocsCompare(t *testing.T) {
	vals := []Value{NewInt(7), NewBit(true), NewFloat(2.5), NewString("Q12"), NewText("Q13"), NewDateTime(time.Unix(100, 0)), Null}
	sink := 0
	avg := testing.AllocsPerRun(100, func() {
		for _, a := range vals {
			for _, b := range vals {
				if (Type{Kind: a.kind}).IsCharacter() != (Type{Kind: b.kind}).IsCharacter() {
					continue
				}
				c, _ := a.Compare(b)
				sink += c
			}
			if ok, _ := a.AsBool(); ok {
				sink++
			}
			if a.Kind() == KindDateTime {
				sink += a.Time().Second()
			}
		}
	})
	if avg != 0 {
		t.Errorf("%.1f allocs/op, want 0", avg)
	}
	_ = sink
}

// TestAppendString: AppendString appends what AsString returns, and
// allocates nothing when the buffer has room.
func TestAppendString(t *testing.T) {
	vals := []Value{Null, NewInt(-42), NewBit(true), NewFloat(2.5), NewFloat(math.Inf(-1)), NewString("Q\x0012"),
		NewText(""), NewDateTime(time.Date(1999, 3, 23, 9, 30, 0, 125e6, time.UTC))}
	buf := make([]byte, 0, 64)
	for _, v := range vals {
		if got := string(v.AppendString([]byte("x"))); got != "x"+v.AsString() {
			t.Errorf("%s %q: AppendString gives %q, want %q", v.Kind(), v.AsString(), got, "x"+v.AsString())
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			buf = v.AppendString(buf[:0])
		}
	})
	if avg != 0 {
		t.Errorf("%.1f allocs/op, want 0", avg)
	}
}

func TestConvert(t *testing.T) {
	v, err := NewString("hello world").Convert(VarChar(5))
	if err != nil || v.Str() != "hello" {
		t.Errorf("varchar truncation: %v %v", v, err)
	}
	v, err = NewFloat(3.9).Convert(Int)
	if err != nil || v.Int() != 3 {
		t.Errorf("float->int: %v %v", v, err)
	}
	v, err = NewString("2026-07-04 00:00:00").Convert(DateTime)
	if err != nil || v.Time().Year() != 2026 {
		t.Errorf("string->datetime: %v %v", v, err)
	}
	if _, err = NewString("junk").Convert(DateTime); err == nil {
		t.Error("junk->datetime should fail")
	}
	if _, err = NewDateTime(time.Now()).Convert(Int); err == nil {
		t.Error("datetime->int should fail")
	}
	v, err = NewInt(7).Convert(Bit)
	if err != nil || v.Int() != 1 {
		t.Errorf("int->bit: %v %v", v, err)
	}
}

func TestArith(t *testing.T) {
	check := func(op byte, a, b Value, want Value) {
		t.Helper()
		got, err := Arith(op, a, b)
		if err != nil || !got.Equal(want) {
			t.Errorf("Arith(%c, %v, %v) = %v, %v; want %v", op, a, b, got, err, want)
		}
	}
	check('+', NewInt(2), NewInt(3), NewInt(5))
	check('-', NewInt(2), NewInt(3), NewInt(-1))
	check('*', NewInt(4), NewFloat(0.5), NewFloat(2))
	check('/', NewInt(7), NewInt(2), NewInt(3)) // integer division truncates
	check('%', NewInt(7), NewInt(2), NewInt(1))
	check('+', NewString("a"), NewString("b"), NewString("ab"))
	check('+', NewString("n="), NewInt(3), NewString("n=3"))
	if _, err := Arith('/', NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := Arith('-', NewString("a"), NewString("b")); err == nil {
		t.Error("string subtraction should error")
	}
	got, err := Arith('%', NewFloat(7.5), NewFloat(2))
	if err != nil || math.Abs(got.Float()-1.5) > 1e-9 {
		t.Errorf("float mod: %v %v", got, err)
	}
}

func TestSQLLiteralRoundTrip(t *testing.T) {
	if got := NewString("it's").SQLLiteral(); got != "'it''s'" {
		t.Errorf("quote escaping: %q", got)
	}
	if got := NewInt(-5).SQLLiteral(); got != "-5" {
		t.Errorf("int literal: %q", got)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "x%", false},
		{"hello", "%x%", false},
		{"", "%", true},
		{"abc", "", false},
		{"HELLO", "hello", true}, // case-insensitive like the server default
		{"abcdbcd", "%bcd", true},
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry of numeric comparison.
	f := func(a, b int64) bool {
		x, okx := NewInt(a).Compare(NewInt(b))
		y, oky := NewInt(b).Compare(NewInt(a))
		return okx && oky && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// String round-trip: int -> string literal -> coerce back.
	g := func(a int64) bool {
		n, ok := NewString(NewInt(a).AsString()).AsInt()
		return ok && n == a
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestRowAndSchema(t *testing.T) {
	s := NewSchema(
		Column{Name: "symbol", Type: VarChar(10)},
		Column{Name: "price", Type: Float},
	)
	if s.Index("SYMBOL") != 0 || s.Index("price") != 1 || s.Index("nope") != -1 {
		t.Error("Index lookup failed")
	}
	if err := s.AddColumn(Column{Name: "vNo", Type: Int, Nullable: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddColumn(Column{Name: "VNO", Type: Int}); err == nil {
		t.Error("duplicate column accepted")
	}
	clone := s.Clone()
	clone.Columns[0].Name = "changed"
	if s.Columns[0].Name != "symbol" {
		t.Error("Clone aliases the original")
	}
	r := Row{NewString("IBM"), NewFloat(101.5), NewInt(1)}
	if !r.Equal(r.Clone()) {
		t.Error("row clone not equal")
	}
	if r.Equal(Row{NewString("IBM")}) {
		t.Error("rows of different length equal")
	}
	if s.String() == "" || r.String() == "" {
		t.Error("diagnostics empty")
	}
}

func TestResultSetFormat(t *testing.T) {
	rs := &ResultSet{
		Schema: NewSchema(Column{Name: "symbol", Type: VarChar(10)}, Column{Name: "price", Type: Float}),
		Rows:   []Row{{NewString("IBM"), NewFloat(100)}, {NewString("T"), NewFloat(22.5)}},
	}
	out := rs.Format()
	if out == "" {
		t.Fatal("empty format")
	}
	for _, want := range []string{"symbol", "price", "IBM", "22.5", "---"} {
		if !contains(out, want) {
			t.Errorf("Format() missing %q in:\n%s", want, out)
		}
	}
	var empty *ResultSet
	if empty.Format() != "" {
		t.Error("nil result set should format empty")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
