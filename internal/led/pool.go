package led

import "sync"

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
// pending list. dispatch appends into it under the detector lock, then
// runs the firings and returns the scratch to the LED's spare slot.
// Recycling is safe because every consumer of a firing copies the value
// out of the slice before dispatch releases it: noteFired stores copies in
// the outstanding map, the deferred queue and the detached pool append
// copies, and IMMEDIATE rules run to completion before release.
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

// detachedPool runs DETACHED rule actions on a bounded set of worker
// goroutines. The previous implementation spawned one goroutine per firing
// — a burst of detached firings could spawn without bound — so the pool
// queues firings and lazily spins up at most maxWorkers drainers; each
// worker exits when the queue runs dry, keeping an idle detector at zero
// goroutines.
type detachedPool struct {
	run func(firing)

	mu         sync.Mutex
	queue      []firing // guarded by mu
	workers    int      // guarded by mu
	maxWorkers int
	peak       int // guarded by mu

	// wg counts queued-but-unfinished firings, so wait drains the queue,
	// not just in-flight workers (shutdown after a burst completes).
	wg sync.WaitGroup
}

// submit enqueues one detached firing and ensures a worker will drain it.
func (p *detachedPool) submit(f firing) {
	p.wg.Add(1)
	p.mu.Lock()
	p.queue = append(p.queue, f)
	if p.workers < p.maxWorkers {
		p.workers++
		if p.workers > p.peak {
			p.peak = p.workers
		}
		go p.drain()
	}
	p.mu.Unlock()
}

// drain runs queued firings until none remain, then retires the worker.
func (p *detachedPool) drain() {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.workers--
			p.mu.Unlock()
			return
		}
		f := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.run(f)
		p.wg.Done()
	}
}

// wait blocks until every submitted firing has run.
func (p *detachedPool) wait() { p.wg.Wait() }

// stats snapshots queue depth, running workers and the peak worker count.
func (p *detachedPool) stats() (queued, workers, peak int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue), p.workers, p.peak
}
