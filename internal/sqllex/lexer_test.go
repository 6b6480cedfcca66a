package sqllex

import (
	"strings"
	"testing"
	"testing/quick"
)

func texts(ts []Token) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	ts, err := Tokenize("select symbol, price from stock where price >= 10.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"select", "symbol", ",", "price", "from", "stock", "where", "price", ">=", "10.5"}
	got := texts(ts)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeString(t *testing.T) {
	ts, err := Tokenize("print 'it''s a test'")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[1].Kind != TokString || ts[1].Text != "it's a test" {
		t.Errorf("got %+v", ts)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestTokenizeComments(t *testing.T) {
	ts, err := Tokenize("select 1 -- trailing\n/* block\ncomment */ , 2 /* unclosed tail")
	if err != nil {
		t.Fatal(err)
	}
	got := texts(ts)
	want := []string{"select", "1", ",", "2"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeQuotedIdent(t *testing.T) {
	ts, err := Tokenize(`select [select] from "from"`)
	if err != nil {
		t.Fatal(err)
	}
	got := texts(ts)
	want := []string{"select", "select", "from", "from"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
	if _, err := Tokenize("[oops"); err == nil {
		t.Error("unterminated bracket ident accepted")
	}
}

func TestTokenizeVariables(t *testing.T) {
	ts, err := Tokenize("exec p @x = 1, @y_2 = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if ts[2].Kind != TokVariable || ts[2].Text != "@x" {
		t.Errorf("got %+v", ts[2])
	}
	if _, err := Tokenize("@ alone"); err == nil {
		t.Error("lone @ accepted")
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := map[string]string{
		"42":     "42",
		"3.25":   "3.25",
		"1e6":    "1e6",
		"2.5e-3": "2.5e-3",
		"7e":     "7", // no exponent digits: '7' then ident 'e'
		"10.a":   "10",
	}
	for in, first := range cases {
		ts, err := Tokenize(in)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", in, err)
		}
		if len(ts) == 0 || ts[0].Text != first {
			t.Errorf("Tokenize(%q)[0] = %v, want %q", in, ts, first)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	ts, err := Tokenize("a<>b != c <= d >= e ^ f . g")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range ts {
		if tok.Kind == TokOp {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<>", "!=", "<=", ">=", "^", "."}
	if strings.Join(ops, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", ops, want)
	}
	if _, err := Tokenize("a ? b"); err == nil {
		t.Error("unknown character accepted")
	}
}

func TestTokenPositions(t *testing.T) {
	src := "update  stock set price = 1"
	ts, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range ts {
		if tok.Kind == TokString {
			continue
		}
		if got := src[tok.Pos:tok.End]; !strings.EqualFold(got, tok.Text) {
			t.Errorf("token %q spans %q", tok.Text, got)
		}
	}
}

func TestIsKeywordAndIsOp(t *testing.T) {
	ts, _ := Tokenize("CREATE trigger =")
	if !ts[0].IsKeyword("create") || !ts[1].IsKeyword("TRIGGER") {
		t.Error("IsKeyword case-insensitivity failed")
	}
	if ts[0].IsKeyword("created") {
		t.Error("IsKeyword matched wrong word")
	}
	if !ts[2].IsOp("=") || ts[2].IsOp("==") {
		t.Error("IsOp failed")
	}
}

func TestTokenizeNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		// Tokenize must terminate and never panic on arbitrary input.
		_, _ = Tokenize(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "\x00") {
			return true
		}
		quoted := "'" + strings.ReplaceAll(s, "'", "''") + "'"
		ts, err := Tokenize(quoted)
		if err != nil || len(ts) != 1 {
			return false
		}
		return ts[0].Kind == TokString && ts[0].Text == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAllocsTokenize: a statement, and a generated action script, cost one
// allocation (the token slice); string literals are slices of the source
// unless they contain an escaped quote.
func TestAllocsTokenize(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		want float64
	}{
		{"insert", "insert quotes values ('IBM', 101.25)", 1},
		{"update", "update quotes set price = 1001.25 where symbol = 'Q12'", 1},
		{"action script", "use db\n" +
			"delete sysContext where tableName = 'db.u.stock_inserted' and context = 'CHRONICLE'\n" +
			"insert sysContext values ('db.u.stock_inserted', 'CHRONICLE', 7)\n" +
			"execute db.u.r__Proc", 1},
		{"escaped quote", "print 'it''s'", 2},
	} {
		if _, err := Tokenize(tc.src); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(200, func() { _, _ = Tokenize(tc.src) }); avg > tc.want {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", tc.name, avg, tc.want)
		}
	}
}

// TestLexIntoKeepsOnlyShortSource: a batch of at most MaxKeptSource bytes
// is lexed into the caller's buffer and left there for the next batch,
// with no allocation once the buffer is big enough; a longer one gets a
// slice of its own, so the buffer never holds tokens of its text.
func TestLexIntoKeepsOnlyShortSource(t *testing.T) {
	const short = "insert quotes values ('IBM', 101.25)"
	var buf []Token
	toks, err := LexInto(&buf, short)
	if err != nil || len(toks) != 8 || len(buf) != 8 || &buf[0] != &toks[0] {
		t.Fatalf("LexInto(short) = %d tokens, buffer %d: %v", len(toks), len(buf), err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = LexInto(&buf, short) }); avg != 0 {
		t.Errorf("LexInto into a warm buffer: %.1f allocs/op, want 0", avg)
	}
	long := short + " -- " + strings.Repeat("x", MaxKeptSource)
	toks, err = LexInto(&buf, long)
	if err != nil || len(toks) != 8 || len(buf) != 8 || &buf[0] == &toks[0] {
		t.Fatalf("LexInto(long) = %d tokens in the buffer's storage: %v", len(toks), err)
	}
}

func TestTokenizeStringEscapes(t *testing.T) {
	for src, want := range map[string]string{
		"''":             "",
		"''''":           "'",
		"'a''''b'":       "a''b",
		"'''a'''":        "'a'",
		"'plain text'":   "plain text",
		"'-- not a c'":   "-- not a c",
		"'/* nor this'":  "/* nor this",
		"'tab\there'":    "tab\there",
		"'ends in '''''": "ends in ''",
	} {
		ts, err := Tokenize(src)
		if err != nil {
			t.Fatalf("Tokenize(%s): %v", src, err)
		}
		if len(ts) != 1 || ts[0].Kind != TokString || ts[0].Text != want || ts[0].End != len(src) {
			t.Errorf("Tokenize(%s) = %+v, want one string %q", src, ts, want)
		}
	}
}
