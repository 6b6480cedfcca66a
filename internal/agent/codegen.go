package agent

import (
	"fmt"
	"sort"
	"strings"

	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

// ShadowRef records that a rule's action reads the parameter context of
// one (table, operation) pair via the TableName.inserted / TableName.deleted
// syntax of §5.6.
type ShadowRef struct {
	Table string // internal db.user.table
	Op    string // "inserted" or "deleted"
}

// GenPrimitiveEventSQL exposes the Figure 11 code generator for the
// figure-regeneration harness (cmd/ecabench) and external tooling.
func GenPrimitiveEventSQL(event, table string, op sqlparse.TriggerOp, notifyHost string, notifyPort int) []string {
	return genPrimitiveEvent(event, table, op, notifyHost, notifyPort)
}

// GenActionProcSQL exposes the Figure 14 code generator.
func GenActionProcSQL(procName, contextName, action string, shadows []ShadowRef) string {
	return genActionProc(procName, contextName, action, shadows)
}

// genPrimitiveEvent generates the Figure 11 artifact batch-for-batch:
// shadow tables, the native trigger that records affected tuples, bumps
// vNo, and notifies the agent over UDP.
//
// One deviation from Figure 11, recorded in EXPERIMENTS.md: the paper's
// generated trigger ends with "execute <proc>", running the rule action
// inside the native trigger. This reproduction instead routes every rule
// through the LED and Action Handler (Figure 4's path), which is what makes
// multiple triggers per event, parameter contexts and coupling modes work
// uniformly for primitive events — six of the seven §2.2 limitations are
// lifted by this one change.
func genPrimitiveEvent(event, table string, op sqlparse.TriggerOp, notifyHost string, notifyPort int) []string {
	_, _, tblObj, _ := splitInternal(table)
	var batches []string

	// Shadow tables (created only if missing; the agent checks first).
	addShadow := func(kind string) {
		shadow := shadowTableName(table, kind)
		batches = append(batches,
			fmt.Sprintf("select * into %s from %s where 1 = 2\nalter table %s add vNo int null",
				shadow, tblObj, shadow))
	}
	switch op {
	case sqlparse.OpInsert:
		addShadow("inserted")
	case sqlparse.OpDelete:
		addShadow("deleted")
	case sqlparse.OpUpdate:
		addShadow("inserted")
		addShadow("deleted")
	}

	// The native trigger. Its name is derived from the event so that each
	// primitive event owns exactly one native trigger.
	var b strings.Builder
	fmt.Fprintf(&b, "create trigger %s\non %s\nfor %s\nas\n", nativeTriggerName(event), tblObj, op)
	fmt.Fprintf(&b, "update %s set vNo = vNo + 1 where eventName = '%s'\n", TabPrimitiveEvent, event)
	record := func(pseudo, kind string) {
		fmt.Fprintf(&b, "insert %s select t.*, spe.vNo from %s t, %s spe where spe.eventName = '%s'\n",
			shadowTableName(table, kind), pseudo, TabPrimitiveEvent, event)
	}
	switch op {
	case sqlparse.OpInsert:
		record("inserted", "inserted")
	case sqlparse.OpDelete:
		record("deleted", "deleted")
	case sqlparse.OpUpdate:
		record("inserted", "inserted")
		record("deleted", "deleted")
	}
	fmt.Fprintf(&b, "select syb_sendmsg('%s', %d, '%s' + spe.vNo) from %s spe where spe.eventName = '%s'",
		notifyHost, notifyPort, notifyPrefix(event, table, string(op)), TabPrimitiveEvent, event)
	batches = append(batches, b.String())
	return batches
}

// nativeTriggerName derives the internal native-trigger name owned by a
// primitive event.
func nativeTriggerName(event string) string { return event + "__trig" }

// genActionProc generates the rule's stored procedure (Figure 14): a
// context-processing prologue that materializes each referenced shadow
// table's parameter context from sysContext, followed by the user's action
// SQL with TableName.inserted references rewritten to the _tmp tables.
func genActionProc(procName, contextName string, action string, shadows []ShadowRef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "create procedure %s as\n", procName)
	for _, sr := range shadows {
		tmp := tmpTableName(sr.Table, sr.Op)
		shadow := shadowTableName(sr.Table, sr.Op)
		fmt.Fprintf(&b, "delete %s\n", tmp)
		// sysContext is keyed by the shadow table so that different
		// events' vNo counters on the same base table cannot cross-match.
		fmt.Fprintf(&b, "insert %s select s.* from %s s, %s c where c.context = '%s' and c.tableName = '%s' and s.vNo = c.vNo\n",
			tmp, shadow, TabContext, contextName, shadow)
	}
	b.WriteString(action)
	return b.String()
}

// genTmpTables generates the one-time creation of _tmp tables for the
// shadow references, and of a hash index on each referenced shadow table's
// vNo, which turns the procedure's s.vNo = c.vNo join into a point lookup
// (idempotent; each is skipped when it already exists). Shadow tables no
// action reads get no index.
func genTmpTables(shadows []ShadowRef) []string {
	var out []string
	for _, sr := range shadows {
		tmp := tmpTableName(sr.Table, sr.Op)
		shadow := shadowTableName(sr.Table, sr.Op)
		_, _, obj, _ := splitInternal(shadow)
		out = append(out,
			fmt.Sprintf("select * into %s from %s where 1 = 2", tmp, shadow),
			fmt.Sprintf("create index %s_vNo on %s (vNo)", obj, shadow))
	}
	return out
}

// rewriteAction expands names in the user's action SQL: every
// TableName.inserted / TableName.deleted reference (§5.6 syntax) is
// rewritten to the internal _tmp table name, and the set of referenced
// shadows is returned for prologue generation. TableName may be
// unqualified, owner-qualified or db-qualified; it is expanded with the
// defining session's database and user.
func rewriteAction(db, user, action string) (string, []ShadowRef, error) {
	toks, err := sqllex.Tokenize(action)
	if err != nil {
		return "", nil, fmt.Errorf("agent: action SQL: %v", err)
	}
	type span struct {
		from, to int
		repl     string
	}
	var spans []span
	seen := make(map[ShadowRef]bool)
	var shadows []ShadowRef

	i := 0
	for i < len(toks) {
		if toks[i].Kind != sqllex.TokIdent {
			i++
			continue
		}
		// Collect the dotted chain starting here.
		parts, rest := parseDottedName(toks[i:])
		n := len(toks) - len(rest) - i // tokens consumed
		if len(parts) >= 2 {
			last := strings.ToLower(parts[len(parts)-1])
			if last == "inserted" || last == "deleted" {
				internal, err := expandName(db, user, parts[:len(parts)-1])
				if err != nil {
					return "", nil, err
				}
				ref := ShadowRef{Table: internal, Op: last}
				if !seen[ref] {
					seen[ref] = true
					shadows = append(shadows, ref)
				}
				spans = append(spans, span{
					from: toks[i].Pos,
					to:   toks[i+n-1].End,
					repl: tmpTableName(internal, last),
				})
			}
		}
		if n == 0 {
			n = 1
		}
		i += n
	}

	if len(spans) == 0 {
		return action, nil, nil
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].from < spans[b].from })
	var b strings.Builder
	prev := 0
	for _, sp := range spans {
		b.WriteString(action[prev:sp.from])
		b.WriteString(sp.repl)
		prev = sp.to
	}
	b.WriteString(action[prev:])
	return b.String(), shadows, nil
}

// notifyPrefix builds the notification message prefix; the generated SQL
// appends the current vNo. Format: ECA1|event|table|op|vNo.
func notifyPrefix(event, table, op string) string {
	return fmt.Sprintf("ECA1|%s|%s|%s|", event, table, op)
}

// maxNotificationLen bounds accepted datagrams. Real notifications are a
// few hundred bytes (three internal names plus a vNo); anything bigger is
// garbage or an attack, not a trigger message.
const maxNotificationLen = 4096
