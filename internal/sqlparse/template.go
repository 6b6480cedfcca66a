package sqlparse

import (
	"encoding/binary"

	"github.com/activedb/ecaagent/internal/sqllex"
)

// Template is one parsed batch whose literal values can be replaced by
// those of another batch of the same shape: the same tokens, except that
// each number and string literal may have another value. A caller that
// keeps a Template per shape parses each shape once. It holds, in token
// order, the Literal node each number and string token became.
type Template struct {
	stmts []Statement
	slots []slot
}

// slot is where one number or string token ended up: the Literal node it
// became, and whether an odd number of unary minus signs folded into it.
type slot struct {
	lit *Literal
	neg bool
}

// IsLiteral reports whether t is a number or string token, the tokens a
// Template rebinds.
func IsLiteral(t sqllex.Token) bool {
	return t.Kind == sqllex.TokNumber || t.Kind == sqllex.TokString
}

// AppendShape appends the shape key of toks to key: each token's kind
// and, unless it is a literal, its length-prefixed text. Two token streams
// share a key exactly when they differ in literal values only.
func AppendShape(key []byte, toks []sqllex.Token) []byte {
	for _, t := range toks {
		key = append(key, byte(t.Kind))
		if !IsLiteral(t) {
			key = binary.AppendUvarint(key, uint64(len(t.Text)))
			key = append(key, t.Text...)
		}
	}
	return key
}

// ParseTemplate parses src, already tokenized into toks, with the parser
// ParseBatch uses. The Template is nil unless every literal token became
// exactly one Literal node (a type length such as varchar(10) does not).
// The statements share no memory with toks.
func ParseTemplate(src string, toks []sqllex.Token) (*Template, []Statement, error) {
	var slots []slot
	p := Parser{src: src, toks: toks, slots: &slots}
	stmts, err := p.Statements()
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, t := range toks {
		if IsLiteral(t) {
			n++
		}
	}
	if n != len(slots) {
		return nil, stmts, nil
	}
	return &Template{stmts: stmts, slots: slots}, stmts, nil
}

// Bind writes the literal values of toks, a batch of the template's
// shape, into its Literal nodes, as the parser would have built them, and
// returns its statements. A bad number fails with the parser's error.
func (t *Template) Bind(toks []sqllex.Token) ([]Statement, error) {
	i := 0
	for _, tok := range toks {
		if !IsLiteral(tok) {
			continue
		}
		v, err := literalValue(tok)
		if err != nil {
			return nil, err
		}
		if t.slots[i].neg {
			v = negate(v)
		}
		t.slots[i].lit.Value = v
		i++
	}
	return t.stmts, nil
}
