// Package sqllex tokenizes the T-SQL-ish dialect the engine and the ECA
// agent share. The token stream preserves enough position information for
// the agent's Language Filter to splice and rewrite client batches (name
// expansion, notification injection) without reformatting untouched text.
package sqllex

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies a token.
type TokenKind int

// Token kinds.
const (
	TokEOF      TokenKind = iota
	TokIdent              // unquoted identifier or keyword
	TokNumber             // integer or float literal
	TokString             // 'single quoted' string, quotes stripped, '' unescaped
	TokOp                 // operator or punctuation: ( ) , . = <> != <= >= < > + - * / % ^
	TokVariable           // @name local variable / procedure parameter
)

// String names the kind for diagnostics.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "eof"
	case TokIdent:
		return "ident"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokOp:
		return "op"
	case TokVariable:
		return "variable"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Token is one lexical token. Text holds the literal payload (for strings,
// the unescaped contents). It is a slice of the input, sharing its memory,
// except for a string literal with an escaped quote.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset of the token's first character in the input
	End  int // byte offset just past the token
}

// IsKeyword reports whether the token is an identifier equal to the given
// keyword, case-insensitively.
func (t Token) IsKeyword(kw string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// IsOp reports whether the token is the given operator.
func (t Token) IsOp(op string) bool {
	return t.Kind == TokOp && t.Text == op
}

// Lexer scans an input string into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Tokenize scans the whole input, returning all tokens (excluding EOF).
// The slice is sized up front from the input length, so ordinary SQL
// costs one allocation.
func Tokenize(src string) ([]Token, error) {
	toks, err := appendTokens(make([]Token, 0, len(src)/tokenBytes+1), src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// appendTokens scans the whole input like Tokenize and appends its tokens
// to dst. On error it returns dst with whatever was appended before the
// error.
func appendTokens(dst []Token, src string) ([]Token, error) {
	lx := Lexer{src: src}
	for {
		t, err := lx.Next()
		if err != nil {
			return dst, err
		}
		if t.Kind == TokEOF {
			return dst, nil
		}
		dst = append(dst, t)
	}
}

// MaxKeptSource is the longest batch, in bytes, whose tokens a caller may
// keep once the batch has run: in a reused lex buffer or in a cached plan.
// A token's Text is a slice of its source, so a kept token keeps the whole
// batch text alive; a longer batch is lexed into a slice of its own and
// dropped with its text. It bounds the kept tokens too: a token is at
// least one byte.
const MaxKeptSource = 4096

// LexInto scans src like Tokenize. When src is at most MaxKeptSource bytes
// the tokens go into the storage of *buf, and *buf is left holding them
// for the next call to reuse; a longer src gets a slice of its own and
// *buf is untouched.
func LexInto(buf *[]Token, src string) ([]Token, error) {
	if len(src) > MaxKeptSource {
		return Tokenize(src)
	}
	toks, err := appendTokens((*buf)[:0], src)
	*buf = toks
	return toks, err
}

// tokenBytes is the source bytes per token Tokenize sizes for. Statements
// and action scripts average five to seven (a keyword, name or quoted
// literal and its separating space); operator-dense text that needs more
// tokens grows the slice.
const tokenBytes = 4

// Next returns the next token, or a TokEOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos, End: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.lexString()
	case c == '"':
		return l.lexQuotedIdent('"')
	case c == '[':
		return l.lexQuotedIdent(']')
	case c == '@':
		l.pos++
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start+1 {
			return Token{}, fmt.Errorf("lone '@' at offset %d", start)
		}
		return Token{Kind: TokVariable, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
	case isDigit(c):
		return l.lexNumber()
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
	default:
		return l.lexOp()
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			if l.pos+1 < len(l.src) {
				l.pos += 2
			} else {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

// lexString scans a quoted string. Text is a slice of the source unless
// the literal contains an escaped quote, written as two quotes.
func (l *Lexer) lexString() (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	escaped := false
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			escaped = true
			l.pos += 2
			continue
		}
		l.pos++
		text := l.src[start+1 : l.pos-1]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		return Token{Kind: TokString, Text: text, Pos: start, End: l.pos}, nil
	}
	return Token{}, fmt.Errorf("unterminated string starting at offset %d", start)
}

func (l *Lexer) lexQuotedIdent(close byte) (Token, error) {
	start := l.pos
	l.pos++ // opening quote/bracket
	idStart := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != close {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return Token{}, fmt.Errorf("unterminated quoted identifier at offset %d", start)
	}
	text := l.src[idStart:l.pos]
	l.pos++
	return Token{Kind: TokIdent, Text: text, Pos: start, End: l.pos}, nil
}

func (l *Lexer) lexNumber() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
}

var twoCharOps = map[string]bool{
	"<>": true, "!=": true, "<=": true, ">=": true, "==": true,
}

func (l *Lexer) lexOp() (Token, error) {
	start := l.pos
	if l.pos+1 < len(l.src) && twoCharOps[l.src[l.pos:l.pos+2]] {
		l.pos += 2
		return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '=', '<', '>', '+', '-', '*', '/', '%', '^', ';', '!', '|', '&', ':':
		l.pos++
		return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start, End: l.pos}, nil
	}
	r := rune(c)
	if r >= 0x80 {
		// Take the whole rune for the error message.
		for _, rr := range l.src[l.pos:] {
			r = rr
			break
		}
	}
	return Token{}, fmt.Errorf("unexpected character %q at offset %d", r, start)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '#' || unicode.IsLetter(rune(c))
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '#' || c == '$' || isDigit(c) || unicode.IsLetter(rune(c))
}
