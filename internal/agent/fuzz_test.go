package agent

import (
	"testing"
	"testing/quick"

	"github.com/activedb/ecaagent/internal/sqllex"
)

// The Language Filter classifies every byte sequence a client could send;
// none of its entry points may panic.

func TestClassifiersNeverPanic(t *testing.T) {
	f := func(s string) bool {
		_ = classifyBatch(new([]sqllex.Token), s)
		_ = classifyBatch(new([]sqllex.Token), "use db "+s)
		_ = IsECACreateTrigger(s)
		_, _ = ParseDropTrigger(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseECATriggerNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = ParseECATrigger("create trigger " + s)
		_, _ = ParseECATrigger(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseNotificationNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _, _, _, _ = parseNotificationBytes([]byte(s), &wireNames)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRewriteActionNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _, _ = rewriteAction("db", "u", s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Adversarial inputs that historically trip token-splicing rewriters.
func TestRewriteActionAdversarial(t *testing.T) {
	cases := []string{
		"select * from a.inserted, b.deleted where x = 'a.inserted'",
		"select 'string with inserted keyword' from t",
		"print 'unterminated",     // lexer error must surface, not panic
		"select * from .inserted", // leading dot
		"select * from inserted",  // bare pseudo-table: untouched
	}
	for _, src := range cases {
		out, shadows, err := rewriteAction("db", "u", src)
		switch src {
		case "print 'unterminated":
			if err == nil {
				t.Errorf("lexer error swallowed for %q", src)
			}
		case "select * from a.inserted, b.deleted where x = 'a.inserted'":
			if err != nil || len(shadows) != 2 {
				t.Errorf("rewrite %q: %v %v", src, shadows, err)
			}
			// The string literal must be untouched.
			if out == "" || !containsFold(out, "'a.inserted'") {
				t.Errorf("literal rewritten: %q", out)
			}
		case "select * from inserted":
			if err != nil || out != src || shadows != nil {
				t.Errorf("bare pseudo-table changed: %q %v %v", out, shadows, err)
			}
		}
	}
}
