package store

import (
	"fmt"
	"io/fs"
	"strings"
	"testing"
	"time"

	"planetp/internal/metrics"
)

func openMem(t *testing.T, fs FS, opts Options) (*Store, Recovery) {
	t.Helper()
	opts.Dir = "peer0"
	opts.FS = fs
	st, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, rec
}

func TestEmptyStoreRecoversEmpty(t *testing.T) {
	mem := NewMemFS()
	st, rec := openMem(t, mem, Options{})
	defer st.Close()
	if rec.Snapshot != nil || len(rec.Ops) != 0 || rec.Epoch != 0 || rec.TruncatedRecords != 0 {
		t.Fatalf("non-empty recovery from empty dir: %+v", rec)
	}
}

func TestWALRoundTrip(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	for i := 0; i < 5; i++ {
		if _, err := st.Append(Op{Kind: OpPublish, Data: fmt.Sprintf("<d%d>doc</d%d>", i, i), Epoch: 1, Seq: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Append(Op{Kind: OpRemove, Data: "d2", Epoch: 1, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if len(rec.Ops) != 6 {
		t.Fatalf("recovered %d ops, want 6", len(rec.Ops))
	}
	if rec.Ops[5].Kind != OpRemove || rec.Ops[5].Data != "d2" {
		t.Fatalf("last op = %v", rec.Ops[5])
	}
	if rec.Epoch != 1 || rec.Seq != 5 {
		t.Fatalf("recovered version %d.%d, want 1.5", rec.Epoch, rec.Seq)
	}
	// LSNs strictly increase from 1.
	for i, op := range rec.Ops {
		if op.LSN != uint64(i+1) {
			t.Fatalf("op %d LSN = %d", i, op.LSN)
		}
	}
	// Appends after recovery continue the LSN sequence.
	lsn, err := st2.Append(Op{Kind: OpPublish, Data: "<e>x</e>", Epoch: 1, Seq: 6})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 7 {
		t.Fatalf("post-recovery LSN = %d, want 7", lsn)
	}
}

func TestSnapshotAndWALSuffix(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	st.Append(Op{Kind: OpPublish, Data: "a", Epoch: 1, Seq: 1})
	st.Append(Op{Kind: OpPublish, Data: "b", Epoch: 1, Seq: 2})
	if err := st.SaveSnapshot(SnapshotData{Payload: []byte("SNAP-AB"), Epoch: 1, Seq: 2, FoldLSN: st.LastLSN()}); err != nil {
		t.Fatal(err)
	}
	st.Append(Op{Kind: OpPublish, Data: "c", Epoch: 1, Seq: 3})
	st.Close()

	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if string(rec.Snapshot) != "SNAP-AB" {
		t.Fatalf("snapshot payload = %q", rec.Snapshot)
	}
	if rec.SnapshotHeader.Epoch != 1 || rec.SnapshotHeader.Seq != 2 {
		t.Fatalf("snapshot header = %+v", rec.SnapshotHeader)
	}
	if len(rec.Ops) != 1 || rec.Ops[0].Data != "c" {
		t.Fatalf("WAL suffix = %v, want just op c", rec.Ops)
	}
	if rec.Epoch != 1 || rec.Seq != 3 {
		t.Fatalf("recovered version %d.%d, want 1.3", rec.Epoch, rec.Seq)
	}
}

func TestCompactionFoldsWAL(t *testing.T) {
	mem := NewMemFS()
	reg := metrics.NewRegistry()
	st, _ := openMem(t, mem, Options{CompactBytes: 256, Metrics: reg})
	var snapCalls int
	st.SetSnapshotSource(func() (SnapshotData, error) {
		snapCalls++
		return SnapshotData{
			Payload: []byte(fmt.Sprintf("SNAP-%d", snapCalls)),
			Epoch:   1, Seq: uint32(snapCalls),
			FoldLSN: st.LastLSN(),
		}, nil
	})
	for i := 0; i < 50; i++ {
		if _, err := st.Append(Op{Kind: OpPublish, Data: strings.Repeat("x", 40), Epoch: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
		if err := st.MaybeCompact(); err != nil {
			t.Fatal(err)
		}
	}
	if snapCalls == 0 {
		t.Fatal("compaction never triggered")
	}
	if got := st.WALSize(); got >= 256 {
		t.Fatalf("WAL not folded: %d bytes", got)
	}
	if reg.Counter("store_compactions_total").Value() == 0 {
		t.Fatal("store_compactions_total not incremented")
	}
	st.Close()

	// Recovery sees the last snapshot plus only the post-snapshot tail.
	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if rec.Snapshot == nil {
		t.Fatal("no snapshot recovered after compaction")
	}
	if len(rec.Ops) >= 50 {
		t.Fatalf("compaction left %d ops in the WAL", len(rec.Ops))
	}
}

func TestTornTailTruncated(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	st.Append(Op{Kind: OpPublish, Data: "good-1", Epoch: 1, Seq: 1})
	st.Append(Op{Kind: OpPublish, Data: "good-2", Epoch: 1, Seq: 2})
	st.Close()

	// Corrupt: append garbage bytes (a torn record) to the WAL.
	h, err := mem.OpenAppend("peer0/wal.ppl")
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	h.Sync()
	h.Close()

	reg := metrics.NewRegistry()
	st2, rec := openMem(t, mem, Options{Metrics: reg})
	if len(rec.Ops) != 2 {
		t.Fatalf("recovered %d ops, want the 2 good ones", len(rec.Ops))
	}
	if rec.TruncatedRecords != 1 || rec.TruncatedBytes != 5 {
		t.Fatalf("truncation stats = %d records / %d bytes", rec.TruncatedRecords, rec.TruncatedBytes)
	}
	if reg.Counter("store_recovery_truncated_records_total").Value() != 1 {
		t.Fatal("truncation not counted in metrics")
	}
	// The tear is physically gone: appends after recovery are readable.
	if _, err := st2.Append(Op{Kind: OpPublish, Data: "good-3", Epoch: 1, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, rec3 := openMem(t, mem, Options{})
	defer st3.Close()
	if len(rec3.Ops) != 3 || rec3.TruncatedRecords != 0 {
		t.Fatalf("post-truncation recovery = %d ops, %d truncated", len(rec3.Ops), rec3.TruncatedRecords)
	}
}

func TestCorruptSnapshotQuarantinedFallsBack(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	st.Append(Op{Kind: OpPublish, Data: "a", Epoch: 1, Seq: 1})
	if err := st.SaveSnapshot(SnapshotData{Payload: []byte("GEN-1"), Epoch: 1, Seq: 1, FoldLSN: st.LastLSN()}); err != nil {
		t.Fatal(err)
	}
	st.Append(Op{Kind: OpPublish, Data: "b", Epoch: 1, Seq: 2})
	if err := st.SaveSnapshot(SnapshotData{Payload: []byte("GEN-2"), Epoch: 1, Seq: 2, FoldLSN: st.LastLSN()}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Flip a byte inside the current snapshot's payload.
	data, err := mem.ReadFile("peer0/snapshot.pps")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	h, _ := mem.Create("peer0/snapshot.pps")
	h.Write(data)
	h.Sync()
	h.Close()

	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if string(rec.Snapshot) != "GEN-1" {
		t.Fatalf("fallback snapshot = %q, want GEN-1", rec.Snapshot)
	}
	if !rec.UsedFallback {
		t.Fatal("UsedFallback not reported")
	}
	if len(rec.Quarantined) != 1 || !strings.HasPrefix(rec.Quarantined[0], "quarantine/") {
		t.Fatalf("quarantined = %v", rec.Quarantined)
	}
	// The corrupt file still exists, moved aside — never deleted.
	if _, err := mem.Size("peer0/" + rec.Quarantined[0]); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if rec.SnapshotHeader.Epoch != 1 || rec.SnapshotHeader.Seq != 1 {
		t.Fatalf("fallback header = %+v", rec.SnapshotHeader)
	}
	// The fallback is GAPLESS: op b (folded into the corrupt GEN-2 and
	// past GEN-1's fold LSN) survives in the retained previous WAL
	// generation and replays on top of GEN-1 — the prior snapshot plus a
	// longer WAL replay, not a silent hole in the middle.
	if len(rec.Ops) != 1 || rec.Ops[0].Data != "b" {
		t.Fatalf("fallback replay ops = %v, want op b from wal.ppl.prev", rec.Ops)
	}
	if rec.Epoch != 1 || rec.Seq != 2 {
		t.Fatalf("recovered version floor %d.%d, want 1.2", rec.Epoch, rec.Seq)
	}
}

func TestOversizedRecordIsCorruption(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	st.Append(Op{Kind: OpPublish, Data: "fine", Epoch: 1, Seq: 1})
	st.Close()
	// Forge a record whose length prefix claims 1 GiB.
	h, _ := mem.OpenAppend("peer0/wal.ppl")
	h.Write([]byte{0x00, 0x00, 0x00, 0x40, 0, 0, 0, 0}) // length = 1<<30
	h.Sync()
	h.Close()

	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if len(rec.Ops) != 1 || rec.TruncatedRecords != 1 {
		t.Fatalf("recovery = %d ops, %d truncated; want 1 op, 1 truncation", len(rec.Ops), rec.TruncatedRecords)
	}
}

func TestClosedStoreRejectsAppends(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	st.Close()
	if _, err := st.Append(Op{Kind: OpPublish, Data: "x"}); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := st.SaveSnapshot(SnapshotData{Epoch: 1, Seq: 1}); err != ErrClosed {
		t.Fatalf("snapshot after close: %v", err)
	}
}

// Regression: a publish that lands between a snapshot source capturing
// its payload and SaveSnapshot installing it must survive the rotation.
// The snapshot folds through the fold LSN captured with the payload, and
// records past it are carried into the fresh WAL generation — they must
// not be stamped as folded in and rotated away.
func TestSnapshotDoesNotLoseRacingAppend(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	st.Append(Op{Kind: OpPublish, Data: "a", Epoch: 1, Seq: 1})
	st.Append(Op{Kind: OpPublish, Data: "b", Epoch: 1, Seq: 2})
	// The source captures state {a,b} and its fold LSN...
	payload, fold := []byte("SNAP-AB"), st.LastLSN()
	// ...then a concurrent, durably-acknowledged publish lands...
	if _, err := st.Append(Op{Kind: OpPublish, Data: "c", Epoch: 1, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	// ...and only now does the snapshot install.
	if err := st.SaveSnapshot(SnapshotData{Payload: payload, Epoch: 1, Seq: 2, FoldLSN: fold}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec := openMem(t, mem, Options{})
	defer st2.Close()
	if string(rec.Snapshot) != "SNAP-AB" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Ops) != 1 || rec.Ops[0].Data != "c" {
		t.Fatalf("racing publish lost by rotation: replay ops = %v, want op c", rec.Ops)
	}
	// LSNs keep advancing past the carried record.
	if lsn, err := st2.Append(Op{Kind: OpPublish, Data: "d", Epoch: 1, Seq: 4}); err != nil || lsn != 4 {
		t.Fatalf("post-recovery append lsn=%d err=%v, want 4", lsn, err)
	}
}

// A snapshot claiming to fold through an LSN never appended is rejected;
// one folding through less than the installed snapshot is skipped (it
// would regress coverage and orphan the records in between).
func TestSaveSnapshotFoldBounds(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	defer st.Close()
	st.Append(Op{Kind: OpPublish, Data: "a", Epoch: 1, Seq: 1})
	if err := st.SaveSnapshot(SnapshotData{Payload: []byte("X"), Epoch: 1, Seq: 1, FoldLSN: 99}); err == nil {
		t.Fatal("fold LSN beyond last append accepted")
	}
	st.Append(Op{Kind: OpPublish, Data: "b", Epoch: 1, Seq: 2})
	if err := st.SaveSnapshot(SnapshotData{Payload: []byte("AB"), Epoch: 1, Seq: 2, FoldLSN: 2}); err != nil {
		t.Fatal(err)
	}
	// A stale capture folding through LSN 1 must not displace it.
	if err := st.SaveSnapshot(SnapshotData{Payload: []byte("A"), Epoch: 1, Seq: 1, FoldLSN: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("peer0/snapshot.pps")
	if err != nil {
		t.Fatal(err)
	}
	if hdr, payload, err := decodeSnapshot(data, 1<<20); err != nil || string(payload) != "AB" || hdr.LSN != 2 {
		t.Fatalf("stale snapshot displaced the newer one: hdr=%+v payload=%q err=%v", hdr, payload, err)
	}
}

// errSizeFS makes every Size probe fail with a non-NotExist error, as a
// permission-denied quarantine directory would.
type errSizeFS struct{ FS }

func (e errSizeFS) Size(name string) (int64, error) {
	return 0, fmt.Errorf("size %s: %w", name, fs.ErrPermission)
}

// Regression: a quarantine-slot probe that fails with anything other
// than ErrNotExist must surface the error, not spin forever.
func TestQuarantineProbeErrorIsFatal(t *testing.T) {
	mem := NewMemFS()
	st, _ := openMem(t, mem, Options{})
	st.Append(Op{Kind: OpPublish, Data: "a", Epoch: 1, Seq: 1})
	st.Close()
	// Corrupt the WAL magic so recovery must quarantine the file.
	data, _ := mem.ReadFile("peer0/wal.ppl")
	data[0] ^= 0xff
	h, _ := mem.Create("peer0/wal.ppl")
	h.Write(data)
	h.Sync()
	h.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := Open(Options{Dir: "peer0", FS: errSizeFS{mem}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Open succeeded despite unprobeable quarantine dir")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Open spinning on quarantine probe")
	}
}
