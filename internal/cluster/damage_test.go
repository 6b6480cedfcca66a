package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"testing"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/scenario"
	"github.com/activedb/ecaagent/internal/storage"
)

// Damage pinning for the replica's journal: the standby dies mid-apply of
// the final shipped WAL frame, leaving a torn half-record — and the bytes
// after the tear are NOT the primary's (a divergent tail, as left by a
// previous generation or a corrupted buffer). Recovery must pin itself to
// the durable prefix — every record before the tear — and report the cut,
// never trusting or extending the divergent suffix.

// walBoundaries scans a journal image with the public framing contract
// (16-byte header, then kind | uvarint len | payload | crc32) and returns
// the byte offset after each whole record. The test re-derives the frame
// layout instead of importing agent internals so a framing change breaks
// this test loudly.
func walBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	const headerLen = 8 + 8 // magic + epoch
	if len(data) < headerLen {
		t.Fatalf("journal too short: %d bytes", len(data))
	}
	var bounds []int
	off := headerLen
	for off < len(data) {
		plen, n := binary.Uvarint(data[off+1:])
		if n <= 0 {
			t.Fatalf("bad record length at offset %d", off)
		}
		end := off + 1 + n + int(plen) + 4
		if end > len(data) {
			t.Fatalf("record at offset %d overruns the file", off)
		}
		h := crc32.NewIEEE()
		h.Write(data[off : off+1])
		h.Write(data[off+1+n : off+1+n+int(plen)])
		if binary.LittleEndian.Uint32(data[end-4:end]) != h.Sum32() {
			t.Fatalf("record at offset %d fails CRC — the source journal is already damaged", off)
		}
		bounds = append(bounds, end)
		off = end
	}
	return bounds
}

func overwriteFile(t *testing.T, fs storage.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, src, dst storage.FS) {
	t.Helper()
	names, err := src.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := src.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		overwriteFile(t, dst, name, data)
	}
}

// dmgEvent is the fully qualified event name the journal records.
const dmgEvent = "dmgdb.sharma.ea"

func TestStandbyRecoveryPinsDurablePrefixOnTornTail(t *testing.T) {
	eng := engine.New(catalog.New())
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript("create database dmgdb\nuse dmgdb\ncreate table ta (x int null)"); err != nil {
		t.Fatal(err)
	}

	// A primary shipping every write to the standby's replica directory
	// (in-process apply — the tear is constructed below, on the replica
	// bytes themselves, which is where a mid-apply crash leaves it).
	priFS := faults.NewCrashDir(11)
	stbFS := faults.NewCrashDir(12)
	met := NewMetrics(obs.NewRegistry())
	applier := NewApplier(stbFS, met)
	ship := NewShipFS(priFS, applier.Apply, nil, met)

	priActs := &scenario.ActionRecorder{}
	pri, err := agent.New(agent.Config{
		Dial:       scenario.RecordingDialer(eng, priActs),
		NotifyAddr: "-",
		Clock:      led.NewManualClock(scenario.Base),
		Logf:       func(string, ...any) {},
		Durability: &agent.Durability{FS: ship, WALSync: agent.WALSyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetNotifier(func(host string, port int, msg string) error {
		pri.Deliver(msg)
		return nil
	})
	cs, err := pri.NewClientSession("sharma", "dmgdb")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("create trigger dmg_pa on ta for insert event ea as print 'pa'"); err != nil {
		t.Fatal(err)
	}
	cs.Close()

	driver := eng.NewSession("sharma")
	if err := driver.Use("dmgdb"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := driver.ExecScript("insert ta values (1)"); err != nil {
			t.Fatal(err)
		}
		pri.WaitActions()
	}
	// Kill the primary crash-style (no orderly Close — that would
	// checkpoint and truncate the very journal this test tears) and
	// release the replica's file handles.
	if err := applier.Close(); err != nil {
		t.Fatal(err)
	}
	priFS.Crash()

	// Find the replica's journal and tear its tail: keep the durable
	// prefix minus the last two records (the final occurrence and its
	// action-done mark), then half of the next record, then a divergent
	// suffix — bytes the primary never wrote.
	names, err := stbFS.List()
	if err != nil {
		t.Fatal(err)
	}
	var walFile string
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") {
			if walFile != "" {
				t.Fatalf("multiple journal generations %q and %q; the test wants exactly one", walFile, name)
			}
			walFile = name
		}
	}
	if walFile == "" {
		t.Fatalf("no journal in the replica directory: %v", names)
	}
	full, err := stbFS.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	wmFull, tornFull, err := agent.DurableOccurrences(stbFS)
	if err != nil {
		t.Fatal(err)
	}
	if tornFull {
		t.Fatalf("replica journal torn before the test damaged it")
	}
	if wmFull[dmgEvent] != 5 {
		t.Fatalf("undamaged watermark %s = %d, want 5 (have %v)", dmgEvent, wmFull[dmgEvent], wmFull)
	}

	bounds := walBoundaries(t, full)
	if len(bounds) < 4 {
		t.Fatalf("journal has only %d records; need at least 4 to cut two", len(bounds))
	}
	cut := bounds[len(bounds)-3] // prefix keeps all but the last two records
	halfLen := (bounds[len(bounds)-2] - cut) / 2
	damaged := append([]byte(nil), full[:cut+halfLen]...)       // torn final frame
	damaged = append(damaged, []byte("DIVERGENT-TAIL-XXXX")...) // bytes the primary never shipped

	// The oracle-by-construction: the same directory with the journal
	// cleanly truncated at the durable prefix.
	prefixFS := faults.NewCrashDir(13)
	copyDir(t, stbFS, prefixFS)
	overwriteFile(t, prefixFS, walFile, full[:cut])
	wmPrefix, _, err := agent.DurableOccurrences(prefixFS)
	if err != nil {
		t.Fatal(err)
	}
	if wmPrefix[dmgEvent] != 4 {
		t.Fatalf("prefix watermark %s = %d, want 4 (the cut removed occurrence 5)", dmgEvent, wmPrefix[dmgEvent])
	}

	overwriteFile(t, stbFS, walFile, damaged)

	// Inspection level: the damaged journal yields exactly the durable
	// prefix, and the cut is reported.
	wmDamaged, torn, err := agent.DurableOccurrences(stbFS)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatalf("DurableOccurrences did not report the torn tail")
	}
	if fmt.Sprint(wmDamaged) != fmt.Sprint(wmPrefix) {
		t.Fatalf("damaged watermarks %v, want the durable prefix %v", wmDamaged, wmPrefix)
	}

	// Recovery level: boot the standby over the damaged directory. It must
	// log the cut ("torn tail after 8 records" — the prefix), replay only
	// the prefix, and let resync re-detect the lost occurrence from the
	// shadow tables instead of trusting the divergent suffix.
	var logMu sync.Mutex
	var logs []string
	stbActs := &scenario.ActionRecorder{}
	stb, err := agent.New(agent.Config{
		Dial:       scenario.RecordingDialer(eng, stbActs),
		NotifyAddr: "-",
		Clock:      led.NewManualClock(scenario.Base),
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
		Durability: &agent.Durability{FS: stbFS, WALSync: agent.WALSyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stb.Close()

	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	wantCut := fmt.Sprintf("torn tail after %d record(s)", len(bounds)-2)
	if !strings.Contains(joined, wantCut) {
		t.Errorf("recovery did not report the cut: want log containing %q in:\n%s", wantCut, joined)
	}

	// The torn occurrence (vno 5) was never marked done in the durable
	// prefix, so resync must re-derive it from the authoritative shadow
	// table and run its action exactly once.
	if err := stb.Resync(); err != nil {
		t.Fatal(err)
	}
	stb.WaitActions()
	if got := stbActs.Snapshot(); len(got) != 1 {
		t.Fatalf("standby re-ran %d action(s) after resync, want exactly 1 (the torn occurrence): %v", len(got), got)
	}

	// And the recovered agent is live: a fresh insert fires normally.
	eng.SetNotifier(func(host string, port int, msg string) error {
		stb.Deliver(msg)
		return nil
	})
	if _, err := driver.ExecScript("insert ta values (2)"); err != nil {
		t.Fatal(err)
	}
	stb.WaitActions()
	if got := stbActs.Snapshot(); len(got) != 2 {
		t.Fatalf("post-recovery insert did not fire: %d action(s) recorded: %v", len(got), got)
	}
}
