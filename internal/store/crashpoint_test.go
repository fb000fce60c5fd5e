package store

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// The crash-point suite: run a fixed workload — appends, an explicit
// snapshot, a compaction — and crash it at EVERY filesystem operation
// index, under every failure mode (stop, torn write, short write, fsync
// failure). After each crash the unsynced page cache is lost
// (MemFS.Crash) and the store is reopened on the bare filesystem.
// Recovery must always reconstruct the state after some prefix of the
// logical operations — a consistent pre- or post-operation state, never
// a corrupt or reordered one.

// logicalOp is one step of the crash workload.
type logicalOp struct {
	kind OpKind // 0 = snapshot
	key  string
	seq  uint32
}

// crashWorkload is the scripted operation sequence. d1 is removed after
// a snapshot so replay ordering matters; the final publishes push the
// WAL over the tiny compaction threshold.
var crashWorkload = []logicalOp{
	{OpPublish, "d0", 1},
	{OpPublish, "d1", 2},
	{OpPublish, "d2", 3},
	{0, "", 3}, // snapshot at v1.3
	{OpRemove, "d1", 3},
	{OpPublish, "d3", 4},
	{OpPublish, "d4", 5},
	{OpRemove, "d0", 5},
	{OpPublish, "d5-padding-padding-padding-padding-padding", 6},
	{OpPublish, "d6", 7},
}

// docSet applies the first n logical ops and renders the resulting doc
// set canonically ("d2,d3"). Snapshot steps do not change state.
func docSet(n int) string {
	docs := map[string]bool{}
	for _, op := range crashWorkload[:n] {
		switch op.kind {
		case OpPublish:
			docs[op.key] = true
		case OpRemove:
			delete(docs, op.key)
		}
	}
	keys := make([]string, 0, len(docs))
	for k := range docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// verAfter returns the workload version after n logical ops.
func verAfter(n int) uint32 {
	if n == 0 {
		return 0
	}
	return crashWorkload[n-1].seq
}

// runWorkload drives the workload against fs until completion or the
// injected crash. The snapshot source is wired so the store's own
// compaction participates in the crash surface.
func runWorkload(fs FS) error {
	st, _, err := Open(Options{Dir: "p", FS: fs, CompactBytes: 300})
	if err != nil {
		return err
	}
	defer st.Close()
	applied := 0
	st.SetSnapshotSource(func() (SnapshotData, error) {
		return SnapshotData{
			Payload: []byte(docSet(applied)),
			Epoch:   1, Seq: verAfter(applied),
			FoldLSN: st.LastLSN(),
		}, nil
	})
	for i, op := range crashWorkload {
		if op.kind == 0 {
			if err := st.SaveSnapshot(SnapshotData{
				Payload: []byte(docSet(i)),
				Epoch:   1, Seq: op.seq,
				FoldLSN: st.LastLSN(),
			}); err != nil {
				return err
			}
		} else {
			if _, err := st.Append(Op{Kind: op.kind, Data: op.key, Epoch: 1, Seq: op.seq}); err != nil {
				return err
			}
			applied = i + 1
			// Compaction runs as a separate step after the append commits
			// (mirroring core.Peer), inside the crash surface. The source
			// reads `applied` and the log tail together — payload and fold
			// LSN are a consistent pair, as core captures them under p.mu.
			if err := st.MaybeCompact(); err != nil {
				return err
			}
		}
		applied = i + 1
	}
	return st.Close()
}

// recoveredState reopens the store and folds snapshot + ops into the
// canonical doc-set rendering.
func recoveredState(t *testing.T, fs FS) (string, Recovery) {
	t.Helper()
	st, rec, err := Open(Options{Dir: "p", FS: fs})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	docs := map[string]bool{}
	if rec.Snapshot != nil {
		for _, k := range strings.Split(string(rec.Snapshot), ",") {
			if k != "" {
				docs[k] = true
			}
		}
	}
	for _, op := range rec.Ops {
		switch op.Kind {
		case OpPublish:
			docs[op.Data] = true
		case OpRemove:
			delete(docs, op.Data)
		}
	}
	keys := make([]string, 0, len(docs))
	for k := range docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ","), rec
}

func TestCrashPointRecovery(t *testing.T) {
	// Dry run: count the workload's filesystem operations.
	dry := NewFaultFS(NewMemFS(), 0)
	if err := runWorkload(dry); err != nil {
		t.Fatalf("dry run failed: %v", err)
	}
	totalOps := dry.Ops()
	if totalOps < 20 {
		t.Fatalf("workload too small to be interesting: %d fs ops", totalOps)
	}

	// Every prefix of the logical workload is a consistent state.
	validStates := map[string][]uint32{}
	for n := 0; n <= len(crashWorkload); n++ {
		s := docSet(n)
		validStates[s] = append(validStates[s], verAfter(n))
	}

	modes := []CrashMode{CrashStop, CrashTorn, CrashShort, CrashFsyncFail}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for at := int64(0); at < totalOps; at++ {
				mem := NewMemFS()
				ffs := NewFaultFS(mem, 0xC0FFEE+at)
				ffs.CrashAt(at, mode)
				err := runWorkload(ffs)
				if err == nil && ffs.Crashed() {
					t.Fatalf("crash at op %d swallowed", at)
				}
				if err != nil && !errors.Is(err, ErrCrashed) {
					t.Fatalf("crash at op %d surfaced unexpected error: %v", at, err)
				}
				// Power loss: unsynced bytes (partially) vanish.
				mem.Crash(at * 7)

				state, rec := recoveredState(t, mem)
				vers, ok := validStates[state]
				if !ok {
					t.Fatalf("crash at op %d (%s): recovered state %q matches no workload prefix",
						at, mode, state)
				}
				verOK := false
				for _, v := range vers {
					if rec.Seq == v {
						verOK = true
						break
					}
				}
				// The recovered version floor may exceed the matched
				// prefix's version when a remove's record survived but
				// its effect equals an earlier state — it must never
				// exceed the final version.
				if !verOK && rec.Seq > verAfter(len(crashWorkload)) {
					t.Fatalf("crash at op %d (%s): recovered version 1.%d beyond workload end",
						at, mode, rec.Seq)
				}
				if rec.Epoch > 1 {
					t.Fatalf("crash at op %d (%s): recovered epoch %d, never written", at, mode, rec.Epoch)
				}
			}
		})
	}
}

// A crashed-and-recovered store must also recover identically when
// reopened twice (recovery is idempotent: the truncation it performs
// leaves a clean log).
func TestCrashRecoveryIdempotent(t *testing.T) {
	for at := int64(0); at < 40; at += 3 {
		mem := NewMemFS()
		ffs := NewFaultFS(mem, 99)
		ffs.CrashAt(at, CrashTorn)
		runWorkload(ffs)
		mem.Crash(at)

		s1, r1 := recoveredState(t, mem)
		s2, r2 := recoveredState(t, mem)
		if s1 != s2 {
			t.Fatalf("crash at %d: recovery not idempotent: %q then %q", at, s1, s2)
		}
		if r2.TruncatedRecords != 0 {
			t.Fatalf("crash at %d: second recovery still truncating (%d records)", at, r2.TruncatedRecords)
		}
		_ = r1
	}
}
