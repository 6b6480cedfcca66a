package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/activedb/ecaagent/internal/storage"
)

// CrashDir is an in-memory storage.FS that models what a real disk does to
// a crashing process: bytes written but not fsynced may be lost — or worse,
// partially persisted (a torn tail) — while synced bytes and completed
// renames survive. The crash-differential harness hands one CrashDir to an
// agent, calls Crash at the simulated kill, then Restart and hands the same
// CrashDir to the recovering agent, which sees exactly the durable image a
// restarted process would.
//
// Metadata operations (Create/Rename/Remove) are modeled as immediately
// durable; the interesting loss channel for the WAL/checkpoint protocol is
// file data, and the checkpoint writer fsyncs file content before its
// publish rename anyway.
type CrashDir struct {
	mu      sync.Mutex
	rng     *rand.Rand
	durable map[string][]byte
	open    map[string]*crashFile
	crashed bool
}

// NewCrashDir returns an empty CrashDir; seed drives the torn-tail lengths
// chosen at Crash.
func NewCrashDir(seed int64) *CrashDir {
	return &CrashDir{
		rng:     rand.New(rand.NewSource(seed)),
		durable: make(map[string][]byte),
		open:    make(map[string]*crashFile),
	}
}

type crashFile struct {
	d       *CrashDir
	name    string
	pending []byte // written, not yet synced
	closed  bool
}

// Create truncates or creates a file. The previous durable content is
// discarded, as os.Create would.
func (d *CrashDir) Create(name string) (storage.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, fmt.Errorf("crashdir: crashed")
	}
	d.durable[name] = nil
	f := &crashFile{d: d, name: name}
	d.open[name] = f
	return f, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.crashed || f.closed {
		return 0, fmt.Errorf("crashdir: write to %s after crash/close", f.name)
	}
	f.pending = append(f.pending, p...)
	return len(p), nil
}

func (f *crashFile) Sync() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.crashed {
		return fmt.Errorf("crashdir: sync after crash")
	}
	if len(f.pending) > 0 {
		f.d.durable[f.name] = append(f.d.durable[f.name], f.pending...)
		f.pending = nil
	}
	return nil
}

// Close marks the handle closed. Unsynced bytes stay pending — close is
// not durability — and are still subject to loss at Crash.
func (f *crashFile) Close() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	f.closed = true
	return nil
}

// ReadFile returns the file's current content: durable bytes plus, while
// the process is "alive", whatever an open handle has written (the OS page
// cache is coherent for readers in the same process).
func (d *CrashDir) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.durable[name]
	if !ok {
		return nil, fmt.Errorf("crashdir: %s: no such file", name)
	}
	out := append([]byte(nil), b...)
	if f, live := d.open[name]; live && !d.crashed {
		out = append(out, f.pending...)
	}
	return out, nil
}

// Rename moves a file; any open handle keeps writing under the new name.
func (d *CrashDir) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return fmt.Errorf("crashdir: crashed")
	}
	b, ok := d.durable[oldName]
	if !ok {
		return fmt.Errorf("crashdir: %s: no such file", oldName)
	}
	d.durable[newName] = b
	delete(d.durable, oldName)
	if f, live := d.open[oldName]; live {
		f.name = newName
		d.open[newName] = f
		delete(d.open, oldName)
	}
	return nil
}

// Remove deletes a file.
func (d *CrashDir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return fmt.Errorf("crashdir: crashed")
	}
	if _, ok := d.durable[name]; !ok {
		return fmt.Errorf("crashdir: %s: no such file", name)
	}
	delete(d.durable, name)
	delete(d.open, name)
	return nil
}

// List returns current file names, sorted.
func (d *CrashDir) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.durable))
	for n := range d.durable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir is a no-op: metadata is modeled as immediately durable.
func (d *CrashDir) SyncDir() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return fmt.Errorf("crashdir: crashed")
	}
	return nil
}

// Crash simulates losing the process: for every open handle a random
// prefix of its unsynced bytes (possibly none, possibly all — a torn tail)
// is persisted, the rest vanish, and every subsequent operation fails until
// Restart.
func (d *CrashDir) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return
	}
	names := make([]string, 0, len(d.open))
	for n := range d.open {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic rng consumption order
	for _, n := range names {
		f := d.open[n]
		if len(f.pending) > 0 {
			keep := d.rng.Intn(len(f.pending) + 1)
			d.durable[n] = append(d.durable[n], f.pending[:keep]...)
		}
	}
	d.open = make(map[string]*crashFile)
	d.crashed = true
}

// Restart clears the crashed flag, modeling the next process start over
// the surviving durable image.
func (d *CrashDir) Restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
}
