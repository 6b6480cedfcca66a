package led

import (
	"fmt"
	"sort"
	"strings"
)

// Dot renders the current event graph in Graphviz DOT format: one node per
// registered event (primitives as boxes, composites as ellipses labelled
// with their operator expression) and edges from constituents to the
// composites that consume them. Rules appear as notes attached to their
// event. Useful for debugging rule bases; `ecasql` users can dump it via
// the agent's LED accessor.
func (l *LED) Dot() string {
	l.mu.Lock()
	defer l.mu.Unlock()

	names := make([]string, 0, len(l.nodes))
	for n := range l.nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("digraph eventgraph {\n")
	b.WriteString("  rankdir=BT;\n")
	for _, name := range names {
		n := l.nodes[name]
		if n.kind == kPrimitive {
			fmt.Fprintf(&b, "  %s [shape=box, label=%s];\n", dotID(name), dotQ(name))
			continue
		}
		label := name
		if n.expr != nil {
			label = name + "\\n= " + n.expr.String()
		}
		fmt.Fprintf(&b, "  %s [shape=ellipse, label=%s];\n", dotID(name), dotQ(label))
		if n.expr != nil {
			for _, ref := range exprRefs(n) {
				fmt.Fprintf(&b, "  %s -> %s;\n", dotID(ref), dotID(name))
			}
		}
	}
	ruleNames := make([]string, 0, len(l.rules))
	for rn := range l.rules {
		ruleNames = append(ruleNames, rn)
	}
	sort.Strings(ruleNames)
	for _, rn := range ruleNames {
		r := l.rules[rn]
		id := dotID("rule_" + rn)
		label := fmt.Sprintf("%s\\n[%s, %s, prio %d]", rn, r.Coupling, r.Context, r.Priority)
		fmt.Fprintf(&b, "  %s [shape=note, label=%s];\n", id, dotQ(label))
		fmt.Fprintf(&b, "  %s -> %s [style=dashed];\n", dotID(r.Event), id)
	}
	b.WriteString("}\n")
	return b.String()
}

// exprRefs lists the distinct constituent event names of a composite node.
func exprRefs(n *node) []string {
	if n.expr == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, name := range eventNamesOf(n) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func eventNamesOf(n *node) []string {
	var out []string
	var walk func(x *node)
	walk = func(x *node) {
		for _, c := range x.children {
			if c.name != "" || c.kind == kPrimitive {
				out = append(out, c.eventName())
				continue
			}
			walk(c)
		}
	}
	walk(n)
	return out
}

// dotID sanitizes a name into a DOT identifier.
func dotID(name string) string {
	var b strings.Builder
	b.WriteByte('n')
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// dotQ quotes a label.
func dotQ(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}
