package led

// primOccBlock lays an occurrence and its single-constituent backing array
// out in one heap object, so delivering a primitive occurrence to a
// subscriber costs exactly one allocation instead of two. The occurrence
// escapes to rule actions and operator state with an ordinary *Occ — only
// the allocation layout is special, never the lifetime: nothing may write
// past Constituents[0] in place, and append on the full slice reallocates
// into a plain slice as usual.
type primOccBlock struct {
	occ Occ
	one [1]Primitive
}

// newPrimOcc builds a context-tagged primitive occurrence in one
// allocation (the Signal→detect hot path's only permitted allocation; see
// the TestAllocsSignalWarmed budget).
func newPrimOcc(p Primitive, ctx Context) *Occ {
	b := &primOccBlock{one: [1]Primitive{p}}
	b.occ = Occ{Event: p.Event, Context: ctx, At: p.At, Constituents: b.one[:1:1]}
	return &b.occ
}

// firingScratch is a recyclable firing slice used for the per-propagation
// pending list. detect appends into it under the detector lock, fire hands
// the firings to their actions and returns the scratch to the LED's spare
// slot. Recycling is safe because every action returns before release, and
// an action that keeps its firing keeps the occurrence, not the slice.
type firingScratch struct {
	fs []firing
}

// getScratch takes the spare scratch, or makes a fresh one when a nested
// or concurrent propagation holds it. Signal ingest runs inline on one
// listener goroutine, so the slot almost always hits.
func (l *LED) getScratch() *firingScratch {
	if s := l.spare.Swap(nil); s != nil {
		return s
	}
	return &firingScratch{fs: make([]firing, 0, 8)}
}

// putScratch clears the slice before storing it in the spare slot, so a
// recycled scratch never pins occurrence objects (a kept slice holding
// live *Occ pointers would keep every constituent reachable until the next
// reuse).
func (l *LED) putScratch(s *firingScratch) {
	for i := range s.fs {
		s.fs[i] = firing{}
	}
	s.fs = s.fs[:0]
	l.spare.Store(s)
}

// sortFirings stable-sorts a firing slice by descending priority without
// allocating: detection batches are small (usually one firing), so an
// insertion sort beats sort.SliceStable's closure-and-interface setup and
// keeps the hot path allocation-free. Equal priorities keep detection
// order, exactly like the sort.SliceStable call it replaces.
func sortFirings(fs []firing) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].rule.Priority > fs[j-1].rule.Priority; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
