package led

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// StateSnapshot is a point-in-time, serializable image of everything the
// detector holds only in memory: per-node partial occurrences under every
// parameter context, open operator windows and their timer deadlines, and
// pending PLUS emissions. It holds no firing: every one has been handed to
// its rule action before the propagation that detected it returned. Its
// occurrences are *Occ, the detector's own type, so the agent's
// checkpoint writer encodes them with the internal/storage codec without
// a mirror type in between; RestoreState rebuilds the same detection
// state onto a graph freshly reconstructed from the system tables.
type StateSnapshot struct {
	Nodes []NodeState
}

// NodeState is one operator node's non-empty per-context state. Nodes are
// identified by a structural path that is stable across restarts: the
// registered event name for roots, then child indexes
// for the anonymous operator nodes it owns ("comp/0/1"). Recursion stops
// at named children — their state belongs to their own registration.
type NodeState struct {
	Path     string
	Kind     int // operator kind; restore verifies it to catch graph drift
	Contexts []CtxState
}

// CtxState is the detection state of one node under one parameter context.
// Every occurrence is the detector's own Occ type, deep-copied on the way
// out (SnapshotState) and on the way back in (RestoreState), so an image
// never shares an occurrence with a live detector.
type CtxState struct {
	Ctx     Context
	Left    []*Occ
	Right   []*Occ
	Windows []WindowState
	Plus    []PlusState
	Done    bool // temporal event already fired
	// Ring and NextBound carry a CEP window/aggregate node's buffered
	// child occurrences and armed boundary deadline (cep.go). Snapshot
	// section v2; absent in v1 checkpoints, which restores as an empty
	// window — correct for any checkpoint written before windows existed.
	Ring      []*Occ
	NextBound time.Time
}

// WindowState is one open A/A*/P/P* interval. Next is the next periodic
// tick deadline; zero for aperiodic windows, which hold no timer.
type WindowState struct {
	Start *Occ
	Mids  []*Occ
	Next  time.Time
}

// PlusState is one scheduled PLUS re-emission.
type PlusState struct {
	Occ *Occ
	At  time.Time
}

// clones deep-copies an occurrence list; nil stays nil.
func clones(os []*Occ) []*Occ {
	if len(os) == 0 {
		return nil
	}
	out := make([]*Occ, len(os))
	for i, o := range os {
		out[i] = o.clone()
	}
	return out
}

// SnapshotState captures the detector's full volatile state. It holds the
// detector lock, which excludes every Signal, timer dispatch and
// definition change, so the image is a consistent cut; rule actions that
// already left the detector are the agent's to record (its action ledger
// and its held DEFERRED firings).
func (l *LED) SnapshotState() *StateSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := &StateSnapshot{}

	names := make([]string, 0, len(l.nodes))
	for name := range l.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		root := l.nodes[name]
		var walk func(n *node, path string)
		walk = func(n *node, path string) {
			if ns := n.captureState(path); ns != nil {
				snap.Nodes = append(snap.Nodes, *ns)
			}
			for i, c := range n.children {
				if c.name == "" {
					walk(c, path+"/"+strconv.Itoa(i))
				}
			}
		}
		walk(root, name)
	}
	return snap
}

// captureState renders this node's non-empty context states. Caller holds
// the detector lock.
func (n *node) captureState(path string) *NodeState {
	if len(n.state) == 0 {
		return nil
	}
	ctxs := make([]Context, 0, len(n.state))
	for c := range n.state {
		ctxs = append(ctxs, c)
	}
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i] < ctxs[j] })
	var out []CtxState
	for _, ctx := range ctxs {
		st := n.state[ctx]
		if len(st.left) == 0 && len(st.right) == 0 && len(st.windows) == 0 &&
			len(st.plus) == 0 && !st.done && len(st.ring) == 0 {
			continue
		}
		cs := CtxState{
			Ctx:       ctx,
			Left:      clones(st.left),
			Right:     clones(st.right),
			Done:      st.done,
			Ring:      clones(st.ring),
			NextBound: st.nextBound,
		}
		for _, w := range st.windows {
			cs.Windows = append(cs.Windows, WindowState{
				Start: w.start.clone(),
				Mids:  clones(w.mids),
				Next:  w.next,
			})
		}
		for _, p := range st.plus {
			cs.Plus = append(cs.Plus, PlusState{Occ: p.occ.clone(), At: p.at})
		}
		out = append(out, cs)
	}
	if len(out) == 0 {
		return nil
	}
	return &NodeState{Path: path, Kind: int(n.kind), Contexts: out}
}

// RestoreState loads a snapshot onto a detector whose event graph and
// rules have already been rebuilt (from the system tables). The graph must
// structurally match the one the snapshot was taken from: unknown paths,
// inactive contexts or child indexes out of range return an error and the
// caller falls back to a cold start. Timers for restored windows, PLUS
// emissions and unfired temporal events are re-armed at their original
// logical deadlines.
func (l *LED) RestoreState(snap *StateSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Validate the whole snapshot against the rebuilt graph before
	// mutating anything: a mismatch must leave the detector untouched so
	// the caller can fall back cleanly to a cold start, never to a
	// half-restored state.
	type target struct {
		n  *node
		cs CtxState
	}
	var plan []target
	for _, ns := range snap.Nodes {
		n, err := l.nodeAtPathLocked(ns.Path)
		if err != nil {
			return err
		}
		if int(n.kind) != ns.Kind {
			return fmt.Errorf("led: restore: node %q is kind %d, snapshot has %d",
				ns.Path, n.kind, ns.Kind)
		}
		for _, cs := range ns.Contexts {
			if _, ok := n.state[cs.Ctx]; !ok {
				return fmt.Errorf("led: restore: node %q not activated in %s", ns.Path, cs.Ctx)
			}
			if n.kind == kPer || n.kind == kPerStar {
				for _, ws := range cs.Windows {
					if ws.Next.IsZero() {
						return fmt.Errorf("led: restore: periodic window at %q missing deadline", ns.Path)
					}
				}
			}
			// A CEP window's arming invariant (ring non-empty ⟺ boundary
			// timer armed) must hold in the image, or the restored window
			// would either never fire or fire on an empty ring.
			if n.kind == kWindow || n.kind == kAgg {
				if (len(cs.Ring) > 0) != !cs.NextBound.IsZero() {
					return fmt.Errorf("led: restore: window state at %q violates arming invariant", ns.Path)
				}
			}
			plan = append(plan, target{n: n, cs: cs})
		}
	}
	for _, t := range plan {
		n, cs := t.n, t.cs
		st := n.state[cs.Ctx]
		st.left = clones(cs.Left)
		st.right = clones(cs.Right)
		st.windows = nil
		st.plus = nil
		st.done = cs.Done
		for _, ws := range cs.Windows {
			w := &window{start: ws.Start.clone(), mids: clones(ws.Mids), next: ws.Next}
			st.windows = append(st.windows, w)
			if n.kind == kPer || n.kind == kPerStar {
				n.armPeriodic(cs.Ctx, st, w)
			}
		}
		for _, ps := range cs.Plus {
			p := &plusPending{occ: ps.Occ.clone(), at: ps.At}
			st.plus = append(st.plus, p)
			n.armPlus(cs.Ctx, st, p)
		}
		st.ring = clones(cs.Ring)
		st.nextBound = time.Time{}
		st.ringStop = nil
		if !cs.NextBound.IsZero() {
			// Re-arm at the original logical deadline; a deadline the
			// crashed process never reached fires during the agent's
			// FireTimersUpTo replay.
			n.armBoundary(cs.Ctx, st, cs.NextBound)
		}
		if n.kind == kTemporal && !st.done {
			// Re-arm even when the deadline already passed (the crashed
			// process may have died before firing it); a duplicate arm
			// from activate is harmless — done suppresses the second fire.
			n.armTemporal(cs.Ctx)
		}
	}
	return nil
}

// nodeAtPathLocked resolves a snapshot path to its node. Caller holds mu.
func (l *LED) nodeAtPathLocked(path string) (*node, error) {
	parts := strings.Split(path, "/")
	n, ok := l.nodes[parts[0]]
	if !ok {
		return nil, fmt.Errorf("led: restore: event %q not defined", parts[0])
	}
	for _, p := range parts[1:] {
		i, err := strconv.Atoi(p)
		if err != nil || i < 0 || i >= len(n.children) {
			return nil, fmt.Errorf("led: restore: bad path %q", path)
		}
		n = n.children[i]
		if n.name != "" {
			return nil, fmt.Errorf("led: restore: path %q crosses named event %q", path, n.name)
		}
	}
	return n, nil
}
