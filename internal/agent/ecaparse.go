package agent

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

// TriggerDef is a parsed ECA trigger definition in one of the paper's
// three forms:
//
//	Figure 9:  create trigger t on tbl for op event e [mods] as SQL
//	Figure 10: create trigger t event e [mods] as SQL
//	Figure 12: create trigger t event e = <snoop expr> [mods] as SQL
//
// mods are a coupling mode, a parameter context, and a positive integer
// priority, in any order. Defaults are IMMEDIATE coupling and RECENT
// context. (The paper's §5 swaps the two in prose — "default coupling mode
// is RECENT, and the default parameter context is IMMEDIATE" — an obvious
// transposition; Figures 9/10/12 list the grammars this parser follows.)
type TriggerDef struct {
	TriggerName []string // user spelling, possibly owner-qualified
	TableName   []string // Figure 9 form only
	Operation   sqlparse.TriggerOp
	EventName   string // user spelling of the event name
	EventExpr   string // raw Snoop expression (Figure 12 form), "" otherwise
	Coupling    led.Coupling
	Context     led.Context
	Priority    int
	ActionSQL   string // raw SQL after AS
}

// DefinesEvent reports whether the definition introduces a new event
// (Figure 9 primitive or Figure 12 composite) rather than reusing one.
func (d *TriggerDef) DefinesEvent() bool {
	return len(d.TableName) > 0 || d.EventExpr != ""
}

// IsECACreateTrigger reports whether src is the agent's extended CREATE
// TRIGGER syntax: a CREATE TRIGGER with an EVENT clause before AS. Plain
// (native) CREATE TRIGGER statements return false and pass through to the
// server untouched.
func IsECACreateTrigger(src string) bool {
	toks, err := sqllex.Tokenize(src)
	return err == nil && isECACreate(toks)
}

// isECACreate is IsECACreateTrigger over a batch's tokens.
func isECACreate(toks []sqllex.Token) bool {
	if len(toks) < 2 || !toks[0].IsKeyword("create") || !toks[1].IsKeyword("trigger") {
		return false
	}
	for _, t := range toks {
		if t.IsKeyword("as") {
			return false
		}
		if t.IsKeyword("event") {
			return true
		}
	}
	return false
}

// ParseDropTrigger recognizes "drop trigger name" and returns the name
// parts. The Language Filter uses it to decide whether the drop targets an
// ECA trigger (handled by the agent) or a native one (passed through).
func ParseDropTrigger(src string) ([]string, bool) {
	toks, err := sqllex.Tokenize(src)
	if err != nil {
		return nil, false
	}
	return dropTriggerName(toks)
}

// dropTriggerName is ParseDropTrigger over a batch's tokens.
func dropTriggerName(toks []sqllex.Token) ([]string, bool) {
	if len(toks) < 3 || !toks[0].IsKeyword("drop") || !toks[1].IsKeyword("trigger") {
		return nil, false
	}
	parts, rest := parseDottedName(toks[2:])
	if len(parts) == 0 || len(rest) != 0 {
		return nil, false
	}
	return parts, true
}

// parseDottedName consumes ident (. ident)* from toks, returning the parts
// and the remaining tokens.
func parseDottedName(toks []sqllex.Token) ([]string, []sqllex.Token) {
	if len(toks) == 0 || toks[0].Kind != sqllex.TokIdent {
		return nil, toks
	}
	parts := []string{toks[0].Text}
	i := 1
	for i+1 < len(toks) && toks[i].IsOp(".") && toks[i+1].Kind == sqllex.TokIdent {
		parts = append(parts, toks[i+1].Text)
		i += 2
	}
	return parts, toks[i:]
}

var couplingWords = map[string]led.Coupling{
	"immediate": led.Immediate,
	"deferred":  led.Deferred,
	"defered":   led.Deferred, // the paper's spelling
	"detached":  led.Detached,
}

var contextWords = map[string]led.Context{
	"recent":     led.Recent,
	"chronicle":  led.Chronicle,
	"continuous": led.Continuous,
	"cumulative": led.Cumulative,
}

// ParseECATrigger parses the extended trigger syntax. src must satisfy
// IsECACreateTrigger.
func ParseECATrigger(src string) (*TriggerDef, error) {
	toks, err := sqllex.Tokenize(src)
	if err != nil {
		return nil, fmt.Errorf("agent: %v", err)
	}
	return parseECATrigger(src, toks)
}

// parseECATrigger parses the trigger whose tokens are toks, which hold
// offsets into src.
func parseECATrigger(src string, toks []sqllex.Token) (*TriggerDef, error) {
	def := &TriggerDef{Coupling: led.Immediate, Context: led.Recent}
	i := 0
	expect := func(kw string) error {
		if i >= len(toks) || !toks[i].IsKeyword(kw) {
			got := "end of input"
			if i < len(toks) {
				got = toks[i].Text
			}
			return fmt.Errorf("agent: expected %q, got %q", kw, got)
		}
		i++
		return nil
	}
	if err := expect("create"); err != nil {
		return nil, err
	}
	if err := expect("trigger"); err != nil {
		return nil, err
	}
	var rest []sqllex.Token
	def.TriggerName, rest = parseDottedName(toks[i:])
	if len(def.TriggerName) == 0 || len(def.TriggerName) > 2 {
		return nil, fmt.Errorf("agent: bad trigger name")
	}
	i = len(toks) - len(rest)

	// Figure 9 form: ON table FOR op.
	if i < len(toks) && toks[i].IsKeyword("on") {
		i++
		def.TableName, rest = parseDottedName(toks[i:])
		if len(def.TableName) == 0 {
			return nil, fmt.Errorf("agent: bad table name after ON")
		}
		i = len(toks) - len(rest)
		if err := expect("for"); err != nil {
			return nil, err
		}
		if i >= len(toks) {
			return nil, fmt.Errorf("agent: missing trigger operation")
		}
		op := sqlparse.TriggerOp(strings.ToLower(toks[i].Text))
		if op != sqlparse.OpInsert && op != sqlparse.OpUpdate && op != sqlparse.OpDelete {
			return nil, fmt.Errorf("agent: invalid trigger operation %q", toks[i].Text)
		}
		def.Operation = op
		i++
	}

	if err := expect("event"); err != nil {
		return nil, err
	}
	nameParts, rest := parseDottedName(toks[i:])
	if len(nameParts) == 0 {
		return nil, fmt.Errorf("agent: missing event name")
	}
	def.EventName = strings.Join(nameParts, ".")
	i = len(toks) - len(rest)

	// Figure 12 form: = <snoop expression> up to the first top-level
	// modifier keyword, priority number, or AS.
	if i < len(toks) && toks[i].IsOp("=") {
		if len(def.TableName) > 0 {
			return nil, fmt.Errorf("agent: a composite event cannot have an ON clause")
		}
		i++
		start := i
		depth := 0
		// A number at depth 0 normally ends the expression (it is the
		// priority modifier) — except right after a comparison operator,
		// where it is an aggregate threshold: AGG(...) > 10 DEFERRED.
		cmpPending := false
		for i < len(toks) {
			t := toks[i]
			switch {
			case t.IsOp("("):
				depth++
			case t.IsOp(")"):
				depth--
			}
			if depth == 0 && !cmpPending && isModifierOrAs(t) {
				break
			}
			if depth == 0 {
				switch {
				case isCmpOp(t):
					cmpPending = true
				case cmpPending && t.IsOp("-"): // negative threshold
				default:
					cmpPending = false
				}
			}
			i++
		}
		if i == start {
			return nil, fmt.Errorf("agent: empty event expression")
		}
		def.EventExpr = strings.TrimSpace(src[toks[start].Pos:toks[i-1].End])
	}

	// Modifiers in any order.
	prioritySet := false
	for i < len(toks) && !toks[i].IsKeyword("as") {
		t := toks[i]
		coupling, isCoupling := led.Immediate, false
		if t.Kind == sqllex.TokIdent {
			coupling, isCoupling = couplingWords[strings.ToLower(t.Text)]
		}
		switch {
		case isCoupling:
			def.Coupling = coupling
		case t.Kind == sqllex.TokIdent && isContextWord(t.Text):
			def.Context = contextWords[strings.ToLower(t.Text)]
		case t.Kind == sqllex.TokNumber && !prioritySet:
			n, err := strconv.Atoi(t.Text)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("agent: bad priority %q", t.Text)
			}
			def.Priority = n
			prioritySet = true
		default:
			return nil, fmt.Errorf("agent: unexpected %q before AS", t.Text)
		}
		i++
	}
	if err := expect("as"); err != nil {
		return nil, err
	}
	if i >= len(toks) {
		return nil, fmt.Errorf("agent: empty trigger action")
	}
	def.ActionSQL = strings.TrimSpace(src[toks[i].Pos:])
	if def.ActionSQL == "" {
		return nil, fmt.Errorf("agent: empty trigger action")
	}
	return def, nil
}

// isCmpOp reports whether t is one of the Snoop aggregate comparison
// operators.
func isCmpOp(t sqllex.Token) bool {
	switch {
	case t.IsOp(">"), t.IsOp(">="), t.IsOp("<"), t.IsOp("<="), t.IsOp("=="), t.IsOp("!="):
		return true
	}
	return false
}

func isModifierOrAs(t sqllex.Token) bool {
	if t.Kind == sqllex.TokNumber {
		return true
	}
	if t.Kind != sqllex.TokIdent {
		return false
	}
	w := strings.ToLower(t.Text)
	if w == "as" || w == "immediate" {
		return true
	}
	if _, ok := couplingWords[w]; ok {
		return true
	}
	return isContextWord(t.Text)
}

func isContextWord(s string) bool {
	_, ok := contextWords[strings.ToLower(s)]
	return ok
}
