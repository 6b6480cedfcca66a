package agent

import "github.com/activedb/ecaagent/internal/storage"

// DurableOccurrences inspects a durability directory without booting an
// agent over it: it decodes the newest valid checkpoint, folds every
// journal generation at or after it, and reports the highest durable vNo
// per event. torn reports whether any journal ended in a torn tail (the
// durable prefix before the tear is still counted — the recovery
// contract is "prefer the prefix, report the cut", and this is how tests
// observe both halves).
//
// The cluster chaos suite uses it as the RPO=0 oracle: after killing a
// sync-mode primary, every occurrence it acknowledged must already
// satisfy vno <= wm[event] on the standby's replica directory — checked
// on the raw files, before any promotion, replay, or resync could paper
// over a loss.
func DurableOccurrences(fs storage.FS) (wm map[string]int, torn bool, err error) {
	g, err := listGenerations(fs)
	if err != nil {
		return nil, false, err
	}
	wm = make(map[string]int)
	ck, baseEpoch := g.newestCheckpoint(fs, func(uint64, error) {})
	if ck != nil {
		for ev, w := range ck.Watermarks {
			wm[ev] = w.Last
		}
	}
	for _, e := range g.wals {
		if e < baseEpoch {
			continue // pruned generations may linger; the checkpoint covers them
		}
		data, rerr := fs.ReadFile(walName(e))
		if rerr != nil {
			continue
		}
		embedded, recs, t, perr := parseWAL(data)
		if perr != nil || embedded != e {
			torn = true // unusable journal: whatever it held is cut
			continue
		}
		torn = torn || t
		for _, r := range recs {
			if r.kind != walOccKind {
				continue
			}
			if r.occ.VNo > wm[r.occ.Event] {
				wm[r.occ.Event] = r.occ.VNo
			}
		}
	}
	return wm, torn, nil
}
