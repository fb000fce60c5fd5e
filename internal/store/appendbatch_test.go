package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"planetp/internal/metrics"
)

// slowSyncFS delays every file Sync, widening the window in which
// concurrent appenders and snapshots pile up behind the flush in progress.
type slowSyncFS struct {
	FS
	delay time.Duration
}

func (s *slowSyncFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, delay: s.delay}, nil
}

func (s *slowSyncFS) OpenAppend(name string) (File, error) {
	f, err := s.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, delay: s.delay}, nil
}

type slowSyncFile struct {
	File
	delay time.Duration
}

func (f *slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// AppendBatch writes the whole batch with one buffered write and commits
// it with exactly one fsync; the records carry dense LSNs and replay in
// order.
func TestAppendBatchSingleFsync(t *testing.T) {
	mem := NewMemFS()
	reg := metrics.NewRegistry()
	st, _ := openMem(t, mem, Options{Metrics: reg})
	base := reg.Counter("store_fsyncs_total").Value()
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Kind: OpPublish, Data: fmt.Sprintf("d%d", i), Epoch: 1, Seq: uint32(i + 1)}
	}
	last, err := st.AppendBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if last != 10 {
		t.Fatalf("last LSN = %d, want 10", last)
	}
	if got := reg.Counter("store_fsyncs_total").Value() - base; got != 1 {
		t.Fatalf("batch of 10 did %d fsyncs, want 1", got)
	}
	if got := reg.Counter("store_batch_appends_total").Value(); got != 1 {
		t.Fatalf("batch appends counter = %d, want 1", got)
	}
	if got := reg.Counter("store_wal_appends_total").Value(); got != 10 {
		t.Fatalf("append counter = %d, want 10", got)
	}
	if e, q := st.LastVersion(); e != 1 || q != 10 {
		t.Fatalf("version floor = %d.%d, want 1.10", e, q)
	}

	// Empty batch: no-op.
	if lsn, err := st.AppendBatch(nil); err != nil || lsn != 0 {
		t.Fatalf("empty batch: lsn=%d err=%v", lsn, err)
	}

	st.Close()
	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if len(rec.Ops) != 10 {
		t.Fatalf("recovered %d ops, want 10", len(rec.Ops))
	}
	for i, op := range rec.Ops {
		if want := fmt.Sprintf("d%d", i); op.Data != want || op.LSN != uint64(i+1) {
			t.Fatalf("op %d = %q/LSN %d, want %q/LSN %d", i, op.Data, op.LSN, want, i+1)
		}
	}
}

// Snapshots racing concurrent appends (each fsyncing under the store
// mutex) must neither deadlock nor lose an acknowledged record.
func TestSnapshotRacesAppends(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, &slowSyncFS{FS: mem, delay: 100 * time.Microsecond}, Options{})
	const workers, each = 4, 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := st.Append(Op{Kind: OpPublish, Data: fmt.Sprintf("w%d-%d", w, i), Epoch: 1, Seq: 1}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	// Snapshots fire while appends (and their fsyncs) are live.
	// The payload is captured while appends continue, so it pairs with
	// the fold LSN only loosely — use an empty payload folding through
	// nothing (FoldLSN 0) plus the full replay to keep it consistent.
	for i := 0; i < 5; i++ {
		time.Sleep(200 * time.Microsecond)
		if err := st.SaveSnapshot(SnapshotData{Payload: nil, Epoch: 1, Seq: 1, FoldLSN: 0}); err != nil {
			t.Errorf("snapshot: %v", err)
		}
	}
	wg.Wait()
	st.Close()

	mem.Crash(3)
	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if len(rec.Ops) != workers*each {
		t.Fatalf("recovered %d ops, want %d", len(rec.Ops), workers*each)
	}
}

// The batched crash-point suite: a workload of AppendBatch calls crashed
// at every filesystem operation index under every mode. Recovery must
// always land on an op-prefix of the batch sequence that includes every
// acknowledged batch — a crash may split the in-flight batch (its tail
// truncates like any torn tail) but can never lose an acked one or
// reorder records.
func TestCrashPointBatchedAppends(t *testing.T) {
	batches := [][]string{
		{"b0-0", "b0-1", "b0-2"},
		{"b1-0"},
		{"b2-0", "b2-1", "b2-2", "b2-3"},
		{"b3-0", "b3-1"},
		{"b4-0", "b4-1", "b4-2", "b4-3", "b4-4"},
	}
	var flat []string
	for _, b := range batches {
		flat = append(flat, b...)
	}

	// run drives the batches, returning how many ops were in batches
	// that were acknowledged (AppendBatch returned nil) before a crash.
	run := func(fs FS) (acked int, err error) {
		st, _, err := Open(Options{Dir: "p", FS: fs})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		seq := uint32(0)
		for _, b := range batches {
			ops := make([]Op, len(b))
			for i, d := range b {
				seq++
				ops[i] = Op{Kind: OpPublish, Data: d, Epoch: 1, Seq: seq}
			}
			if _, err := st.AppendBatch(ops); err != nil {
				return acked, err
			}
			acked += len(b)
		}
		return acked, st.Close()
	}

	dry := NewFaultFS(NewMemFS(), 0)
	if _, err := run(dry); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	totalOps := dry.Ops()

	for _, mode := range []CrashMode{CrashStop, CrashTorn, CrashShort, CrashFsyncFail} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for at := int64(0); at < totalOps; at++ {
				mem := NewMemFS()
				ffs := NewFaultFS(mem, 0xBA7C4+at)
				ffs.CrashAt(at, mode)
				acked, err := run(ffs)
				if err != nil && !errors.Is(err, ErrCrashed) {
					t.Fatalf("crash at %d: unexpected error: %v", at, err)
				}
				mem.Crash(at * 13)

				_, rec := recoveredState(t, mem)
				if len(rec.Ops) < acked {
					t.Fatalf("crash at %d (%s): %d acked ops but only %d recovered",
						at, mode, acked, len(rec.Ops))
				}
				for i, op := range rec.Ops {
					if i >= len(flat) || op.Data != flat[i] {
						t.Fatalf("crash at %d (%s): recovered op %d = %q, not an op-prefix of the batch sequence",
							at, mode, i, op.Data)
					}
				}
			}
		})
	}
}
