package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path"
	"sync"
	"time"

	"planetp/internal/metrics"
)

// File names within the store directory.
const (
	walName      = "wal.ppl"
	walPrevName  = "wal.ppl.prev"
	walTmpName   = "wal.ppl.tmp"
	snapName     = "snapshot.pps"
	snapPrevName = "snapshot.pps.prev"
	snapTmpName  = "snapshot.pps.tmp"
	quarDir      = "quarantine"
)

// Options parameterizes a Store.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// FS is the filesystem seam (nil = the operating system). Tests
	// mount MemFS/FaultFS here for deterministic disk-fault injection.
	FS FS
	// CompactBytes is the smallest WAL size that triggers folding the log
	// into a fresh snapshot (default 1 MiB; requires a snapshot source).
	// Past it the log folds when it outgrows the installed snapshot.
	CompactBytes int64
	// Metrics receives the store_* counters (nil = none).
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 1 << 20
	}
	return o
}

// Recovery is what Open reconstructed from disk. The caller replays
// Snapshot (decode + restore) and then Ops, in order, to rebuild its
// state, and must announce itself with an epoch strictly greater than
// Epoch — the recovered counters are the highest the dead incarnation
// could have gossiped.
type Recovery struct {
	// Snapshot is the latest readable snapshot payload (nil if none).
	Snapshot []byte
	// SnapshotHeader holds the snapshot's durable version counters
	// (zero if Snapshot is nil).
	SnapshotHeader Header
	// Ops is the WAL suffix after the snapshot (LSN > SnapshotHeader.LSN),
	// in append order.
	Ops []Op
	// Epoch and Seq are the highest version counters found anywhere in
	// the store — the floor for the restarted incarnation's epoch bump.
	Epoch, Seq uint32
	// TruncatedRecords counts torn/corrupt WAL tails dropped (one per
	// truncation: framing past the first bad record is unreliable).
	TruncatedRecords int
	// TruncatedBytes counts the bytes those truncations discarded.
	TruncatedBytes int64
	// Quarantined lists files moved aside as unreadable (never deleted),
	// relative to the store directory.
	Quarantined []string
	// UsedFallback reports that the previous snapshot was used because
	// the current one was missing or corrupt.
	UsedFallback bool
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrRecordTooLarge refuses an operation whose record would exceed
// maxRecordBytes: recovery reads such a length prefix as a torn tail.
var ErrRecordTooLarge = errors.New("store: record exceeds the WAL record bound")

// SnapshotData is what a snapshot source captures: the serialized full
// state, the gossip version it reflects, and the LSN of the last WAL
// operation whose effect is included in the payload. FoldLSN must be
// read atomically with the payload (under whatever lock serializes the
// caller's appends — core reads it under the peer mutex); otherwise an
// operation appended between the capture and SaveSnapshot could be
// stamped as folded in without actually being in the payload.
type SnapshotData struct {
	Payload    []byte
	Epoch, Seq uint32
	FoldLSN    uint64
}

// Store is a live crash-safe persistence handle: an open WAL plus the
// snapshot protocol. Safe for concurrent use.
type Store struct {
	opts Options
	fsys FS

	mu          sync.Mutex
	wal         File
	walBytes    int64
	nextLSN     uint64
	snapLSN     uint64 // WAL position the current snapshot folds through
	snapBytes   int64  // size of the installed snapshot file
	recBuf      []byte // AppendBatch's record buffer, reused under mu
	lastVer     [2]uint32
	closed      bool
	compacting  bool
	snapshotSrc func() (SnapshotData, error)

	m storeMetrics
}

type storeMetrics struct {
	appends, fsyncs, snapshots, compactions *metrics.Counter
	truncRecords, truncBytes, quarantined   *metrics.Counter
	batchAppends                            *metrics.Counter
	compactionUS                            *metrics.Histogram
	snapshotBytes                           *metrics.Gauge
}

// compactionBoundsUS buckets a compaction's wall time in microseconds.
var compactionBoundsUS = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// Open mounts (or initializes) the store under opts.Dir and performs
// recovery: it reads the newest readable snapshot (falling back to the
// previous one, quarantining corrupt files aside), replays the WAL up to
// the first torn or corrupt record, truncates the tear, and returns
// everything the caller needs to rebuild its state and supersede its
// previous incarnation.
func Open(opts Options) (*Store, Recovery, error) {
	opts = opts.withDefaults()
	s := &Store{
		opts: opts,
		fsys: opts.FS,
		m: storeMetrics{
			appends:       opts.Metrics.Counter("store_wal_appends_total"),
			fsyncs:        opts.Metrics.Counter("store_fsyncs_total"),
			snapshots:     opts.Metrics.Counter("store_snapshots_total"),
			compactions:   opts.Metrics.Counter("store_compactions_total"),
			truncRecords:  opts.Metrics.Counter("store_recovery_truncated_records_total"),
			truncBytes:    opts.Metrics.Counter("store_recovery_truncated_bytes_total"),
			quarantined:   opts.Metrics.Counter("store_quarantined_files_total"),
			batchAppends:  opts.Metrics.Counter("store_batch_appends_total"),
			compactionUS:  opts.Metrics.Histogram("store_compaction_us", compactionBoundsUS),
			snapshotBytes: opts.Metrics.Gauge("store_snapshot_bytes"),
		},
	}
	if err := s.fsys.MkdirAll(opts.Dir); err != nil {
		return nil, Recovery{}, fmt.Errorf("store: mkdir %s: %w", opts.Dir, err)
	}
	var rec Recovery
	if err := s.recoverSnapshot(&rec); err != nil {
		return nil, Recovery{}, err
	}
	if err := s.recoverWAL(&rec); err != nil {
		return nil, Recovery{}, err
	}
	// The recovered version floor: snapshot counters, then any newer op.
	rec.Epoch, rec.Seq = rec.SnapshotHeader.Epoch, rec.SnapshotHeader.Seq
	for _, op := range rec.Ops {
		if verLess(rec.Epoch, rec.Seq, op.Epoch, op.Seq) {
			rec.Epoch, rec.Seq = op.Epoch, op.Seq
		}
	}
	s.lastVer = [2]uint32{rec.Epoch, rec.Seq}
	s.m.truncRecords.Add(int64(rec.TruncatedRecords))
	s.m.truncBytes.Add(rec.TruncatedBytes)
	s.m.quarantined.Add(int64(len(rec.Quarantined)))
	return s, rec, nil
}

// verLess orders (epoch, seq) pairs like directory.Version.
func verLess(e1, s1, e2, s2 uint32) bool {
	if e1 != e2 {
		return e1 < e2
	}
	return s1 < s2
}

// recoverSnapshot loads the newest readable snapshot into rec,
// quarantining corrupt files and falling back to the previous snapshot.
func (s *Store) recoverSnapshot(rec *Recovery) error {
	for i, name := range []string{snapName, snapPrevName} {
		data, err := s.fsys.ReadFile(join(s.opts.Dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", name, err)
		}
		hdr, payload, derr := decodeSnapshot(data)
		if derr != nil {
			q, qerr := s.quarantine(name)
			if qerr != nil {
				return qerr
			}
			rec.Quarantined = append(rec.Quarantined, q)
			continue
		}
		rec.Snapshot = payload
		rec.SnapshotHeader = hdr
		rec.UsedFallback = i > 0 || len(rec.Quarantined) > 0
		s.snapLSN = hdr.LSN
		s.snapBytes = int64(len(data))
		s.m.snapshotBytes.Set(s.snapBytes)
		return nil
	}
	// Also quarantine a leftover temp snapshot? No: a stale temp file is
	// a normal artifact of a crash mid-snapshot; the next snapshot
	// overwrites it. Leaving it costs nothing and deletes nothing.
	return nil
}

// recoverWAL replays the log, truncates at the first tear, filters ops
// already folded into the snapshot, and leaves the store ready to append.
// Both WAL generations are scanned — wal.ppl.prev (the generation
// displaced by the last rotation) and wal.ppl — and merged by LSN, so a
// fallback to the previous snapshot replays a gapless prefix: the prev
// WAL holds exactly the operations after the prev snapshot's fold LSN.
func (s *Store) recoverWAL(rec *Recovery) error {
	prevOps := s.scanPrevWAL()

	walPath := join(s.opts.Dir, walName)
	data, err := s.fsys.ReadFile(walPath)
	var ops []Op
	validEnd := 0
	haveWAL := false
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// A crash between the two rotation renames leaves no wal.ppl; the
		// displaced generation (wal.ppl.prev) carries its records.
	case err != nil:
		return fmt.Errorf("store: reading %s: %w", walName, err)
	case len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic):
		// The whole file is unreadable (lost or foreign header):
		// quarantine it and start a fresh log. Its bytes count as
		// truncated — they carried an unknown number of records.
		if len(data) > 0 {
			q, qerr := s.quarantine(walName)
			if qerr != nil {
				return qerr
			}
			rec.Quarantined = append(rec.Quarantined, q)
			rec.TruncatedRecords++
			rec.TruncatedBytes += int64(len(data))
		}
	default:
		haveWAL = true
		var dropped int
		ops, validEnd, dropped = scanWAL(data[len(walMagic):], 0)
		if dropped > 0 {
			rec.TruncatedRecords++
			rec.TruncatedBytes += int64(dropped)
			if err := s.fsys.Truncate(walPath, int64(len(walMagic)+validEnd)); err != nil {
				return fmt.Errorf("store: truncating torn WAL: %w", err)
			}
		}
	}
	// Ops already folded into the snapshot replay as no-ops — skip them
	// by LSN. Ops present in both generations (the rotation carries the
	// unfolded suffix forward) dedup in the merge.
	for _, op := range mergeOps(prevOps, ops) {
		if op.LSN > s.snapLSN {
			rec.Ops = append(rec.Ops, op)
		}
		if op.LSN >= s.nextLSN {
			s.nextLSN = op.LSN + 1
		}
	}
	if s.snapLSN >= s.nextLSN {
		s.nextLSN = s.snapLSN + 1
	}
	if !haveWAL {
		return s.freshWAL()
	}
	wal, err := s.fsys.OpenAppend(walPath)
	if err != nil {
		return fmt.Errorf("store: opening WAL: %w", err)
	}
	s.wal = wal
	s.walBytes = int64(len(walMagic) + validEnd)
	return nil
}

// scanPrevWAL reads the displaced WAL generation (best-effort: the file
// is redundancy for snapshot fallback, so an absent or unreadable prev
// WAL contributes nothing rather than failing recovery). It is never
// truncated or mutated — the next rotation supersedes it.
func (s *Store) scanPrevWAL() []Op {
	data, err := s.fsys.ReadFile(join(s.opts.Dir, walPrevName))
	if err != nil || len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		return nil
	}
	ops, _, _ := scanWAL(data[len(walMagic):], 0)
	return ops
}

// mergeOps merges two LSN-ascending op lists into one, dropping
// duplicate LSNs (the same record can live in both WAL generations when
// a rotation carried it forward).
func mergeOps(a, b []Op) []Op {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Op, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].LSN < b[j].LSN:
			out = append(out, a[i])
			i++
		case b[j].LSN < a[i].LSN:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// freshWAL creates an empty log (magic only) and syncs it.
func (s *Store) freshWAL() error {
	wal, err := s.fsys.Create(join(s.opts.Dir, walName))
	if err != nil {
		return fmt.Errorf("store: creating WAL: %w", err)
	}
	if _, err := wal.Write(walMagic); err != nil {
		wal.Close()
		return fmt.Errorf("store: writing WAL header: %w", err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return fmt.Errorf("store: syncing WAL header: %w", err)
	}
	s.wal = wal
	s.walBytes = int64(len(walMagic))
	if s.nextLSN <= s.snapLSN {
		s.nextLSN = s.snapLSN + 1
	}
	if s.nextLSN == 0 {
		s.nextLSN = 1
	}
	return nil
}

// quarantine moves an unreadable file aside (never deletes it) and
// returns its new name relative to the store directory.
func (s *Store) quarantine(name string) (string, error) {
	if err := s.fsys.MkdirAll(join(s.opts.Dir, quarDir)); err != nil {
		return "", fmt.Errorf("store: mkdir quarantine: %w", err)
	}
	const maxProbes = 10000
	for i := 0; i < maxProbes; i++ {
		q := path.Join(quarDir, fmt.Sprintf("%s.%d", name, i))
		_, err := s.fsys.Size(join(s.opts.Dir, q))
		switch {
		case errors.Is(err, fs.ErrNotExist):
			if err := s.fsys.Rename(join(s.opts.Dir, name), join(s.opts.Dir, q)); err != nil {
				return "", fmt.Errorf("store: quarantining %s: %w", name, err)
			}
			return q, nil
		case err != nil:
			// Anything but "free slot" is a real filesystem problem —
			// surface it instead of probing forever.
			return "", fmt.Errorf("store: probing quarantine slot %s: %w", q, err)
		}
	}
	return "", fmt.Errorf("store: %d quarantined generations of %s — refusing to add more", maxProbes, name)
}

// SetSnapshotSource installs the callback compaction uses to produce a
// fresh full-state snapshot. Without a source the WAL grows unboundedly
// but the store still works.
func (s *Store) SetSnapshotSource(fn func() (SnapshotData, error)) {
	s.mu.Lock()
	s.snapshotSrc = fn
	s.mu.Unlock()
}

// Append logs one operation — a batch of one — and returns its LSN.
func (s *Store) Append(op Op) (uint64, error) {
	return s.AppendBatch([]Op{op})
}

// AppendBatch logs ops as one contiguous record run — a single buffered
// write and one fsync for the whole batch, both under s.mu — and returns
// the LSN of the last record. An error means the records are not durably
// committed; AppendBatch never has side effects beyond the log, so callers
// can treat a failure as "operation did not happen" (a torn batch tail is
// truncated at recovery like any torn record). A batch holding a record
// recovery could not read back is refused whole (ErrRecordTooLarge). An
// empty batch is a no-op returning (0, nil). Compaction is a separate step
// — see MaybeCompact.
func (s *Store) AppendBatch(ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	for i := range ops {
		if n := recordPayloadLen(ops[i]); n > maxRecordBytes {
			return 0, fmt.Errorf("%w: %s record of %d bytes, bound %d", ErrRecordTooLarge, opKindNames[ops[i].Kind], n, maxRecordBytes)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	buf := s.recBuf[:0]
	lsn := s.nextLSN
	hi := s.lastVer
	for i := range ops {
		op := ops[i]
		op.LSN = lsn
		lsn++
		buf = encodeRecordInto(buf, op)
		if verLess(hi[0], hi[1], op.Epoch, op.Seq) {
			hi = [2]uint32{op.Epoch, op.Seq}
		}
	}
	// A write error leaves the LSN counters unadvanced: whatever partial
	// bytes reached the file are a tear for recovery to truncate.
	_, err := s.wal.Write(buf)
	if cap(buf) <= maxKeptRecBuf {
		s.recBuf = buf
	}
	if err != nil {
		return 0, fmt.Errorf("store: wal append: %w", err)
	}
	s.nextLSN = lsn
	s.walBytes += int64(len(buf))
	s.lastVer = hi
	if err := s.syncLocked(); err != nil {
		return 0, err
	}
	s.m.appends.Add(int64(len(ops)))
	s.m.batchAppends.Inc()
	return lsn - 1, nil
}

// maxKeptRecBuf caps the record buffer AppendBatch keeps between calls,
// so one huge batch does not pin its buffer for the store's lifetime.
const maxKeptRecBuf = 1 << 20

// syncLocked fsyncs the log. Caller holds s.mu, so the File cannot be
// rotated or closed under the flush.
func (s *Store) syncLocked() error {
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	s.m.fsyncs.Inc()
	return nil
}

// MaybeCompact folds the WAL into a fresh snapshot when it has passed
// the compaction threshold and a snapshot source is installed; otherwise
// it is a cheap no-op. The threshold is CompactBytes or the installed
// snapshot's size, whichever is larger: the log folds when it has doubled
// the on-disk state, so the rewrite work over a store's life is linear in
// what it holds and recovery never replays more log than snapshot. It
// must be called OUTSIDE any lock the snapshot source takes (core calls
// it after releasing the peer mutex — the source re-acquires it to
// capture payload and fold LSN atomically).
// A compaction failure never invalidates the appends that triggered it:
// they are already durable, the WAL just keeps growing until a later
// compaction succeeds.
func (s *Store) MaybeCompact() error {
	s.mu.Lock()
	if s.closed || s.compacting || s.snapshotSrc == nil || s.walBytes < max(s.opts.CompactBytes, s.snapBytes) {
		s.mu.Unlock()
		return nil
	}
	src := s.snapshotSrc
	s.compacting = true
	s.mu.Unlock()

	start := time.Now()
	data, err := src()
	if err == nil {
		err = s.SaveSnapshot(data)
	}
	s.mu.Lock()
	s.compacting = false
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("store: compaction: %w", err)
	}
	s.m.compactionUS.Observe(time.Since(start).Microseconds())
	s.m.compactions.Inc()
	return nil
}

// SaveSnapshot atomically replaces the on-disk snapshot with the
// captured payload (temp file + fsync + rename, previous snapshot kept
// as fallback) and rotates the WAL. The snapshot header is stamped with
// data.FoldLSN — the LSN the payload actually folds through, captured by
// the source atomically with the payload — NOT the log's current tail:
// operations appended after the capture are not in the payload, so they
// are carried forward into the rotated log (and the displaced log is
// kept as wal.ppl.prev) instead of being rotated away. A snapshot that
// would fold through less than the installed one is skipped: it could
// only regress coverage and orphan the records in between.
func (s *Store) SaveSnapshot(data SnapshotData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if data.FoldLSN >= s.nextLSN {
		return fmt.Errorf("store: snapshot folds through LSN %d beyond last append %d", data.FoldLSN, s.nextLSN-1)
	}
	if data.FoldLSN < s.snapLSN {
		return nil
	}
	// An append whose fsync failed left its record written but not
	// flushed: records at or below the fold LSN must be durable before
	// the snapshot can supersede them, and the carried suffix is read
	// back from the file below.
	if err := s.syncLocked(); err != nil {
		return err
	}
	hdr := Header{Epoch: data.Epoch, Seq: data.Seq, LSN: data.FoldLSN}

	dir := s.opts.Dir
	tmp, err := s.fsys.Create(join(dir, snapTmpName))
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	// Header and payload go out as two writes: the payload is never copied
	// into a whole-file image.
	for _, b := range [][]byte{snapshotHeader(hdr, data.Payload), data.Payload} {
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	tmp.Close()
	// Keep the displaced snapshot as the fallback generation.
	if _, err := s.fsys.Size(join(dir, snapName)); err == nil {
		if err := s.fsys.Rename(join(dir, snapName), join(dir, snapPrevName)); err != nil {
			return fmt.Errorf("store: rotating previous snapshot: %w", err)
		}
	}
	if err := s.fsys.Rename(join(dir, snapTmpName), join(dir, snapName)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	if err := s.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	s.snapLSN = hdr.LSN
	s.snapBytes = int64(snapHeaderSize + len(data.Payload))
	s.m.snapshotBytes.Set(s.snapBytes)
	s.m.snapshots.Inc()

	// Rotate the WAL: build the next generation aside — magic plus the
	// byte-for-byte suffix of records the snapshot does NOT fold through
	// (LSN > FoldLSN) — sync it, rename the displaced generation to
	// wal.ppl.prev (it backs the fallback snapshot), and rename the new
	// one into place. A crash at any point leaves recovery a complete
	// record set: the old log under one name or the other, with the
	// snapshot + merged-generation replay reconstructing a consistent
	// prefix.
	suffix, err := s.walSuffixAfter(data.FoldLSN)
	if err != nil {
		return err
	}
	nw, err := s.fsys.Create(join(dir, walTmpName))
	if err != nil {
		return fmt.Errorf("store: creating fresh WAL: %w", err)
	}
	if _, err := nw.Write(append(append([]byte{}, walMagic...), suffix...)); err != nil {
		nw.Close()
		return fmt.Errorf("store: writing fresh WAL: %w", err)
	}
	if err := nw.Sync(); err != nil {
		nw.Close()
		return fmt.Errorf("store: syncing fresh WAL: %w", err)
	}
	if err := s.fsys.Rename(join(dir, walName), join(dir, walPrevName)); err != nil {
		nw.Close()
		return fmt.Errorf("store: rotating previous WAL: %w", err)
	}
	if err := s.fsys.Rename(join(dir, walTmpName), join(dir, walName)); err != nil {
		nw.Close()
		return fmt.Errorf("store: installing fresh WAL: %w", err)
	}
	if err := s.fsys.SyncDir(dir); err != nil {
		nw.Close()
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	s.wal.Close()
	s.wal = nw
	s.walBytes = int64(len(walMagic) + len(suffix))
	return nil
}

// walSuffixAfter returns the raw bytes of the current log's records with
// LSN > foldLSN (the records a snapshot folding through foldLSN must
// carry into the next WAL generation). Caller holds s.mu with the log
// fsynced.
func (s *Store) walSuffixAfter(foldLSN uint64) ([]byte, error) {
	data, err := s.fsys.ReadFile(join(s.opts.Dir, walName))
	if err != nil {
		return nil, fmt.Errorf("store: reading WAL for rotation: %w", err)
	}
	body := data[len(walMagic):]
	off := 0
	for off < len(body) {
		op, n, err := decodeRecord(body[off:])
		if err != nil {
			break // we wrote these records; a tear here ends the file
		}
		if op.LSN > foldLSN {
			break
		}
		off += n
	}
	return body[off:], nil
}

// LastLSN returns the LSN of the most recent append (0 if none yet).
// Snapshot sources read it while holding whatever lock serializes their
// appends, so the returned LSN is exactly the state the payload captures.
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN - 1
}

// WALSize returns the current log size in bytes.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// LastVersion returns the highest (epoch, seq) the store has durably
// recorded — the version floor a restarted incarnation must exceed.
func (s *Store) LastVersion() (epoch, seq uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastVer[0], s.lastVer[1]
}

// Close fsyncs and releases the log. It does not write a final snapshot —
// callers wanting one call SaveSnapshot first (see core.Peer.Stop).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
