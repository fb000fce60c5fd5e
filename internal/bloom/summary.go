package bloom

import "slices"

// InsertTrack adds key to the filter like Insert, additionally appending
// every newly set bit position to track, and returns the (possibly
// grown) track slice. Because bits are only ever set, a given position
// can be appended at most once over a filter's lifetime — tracked
// positions are unique even across calls.
func (f *Filter) InsertTrack(key string, track []uint64) []uint64 {
	var buf [16]uint64
	idx := f.indexes(key, buf[:0])
	n := len(track)
	for _, p := range idx {
		if f.setBit(p) {
			track = append(track, p)
		}
	}
	f.ngen++
	if len(track) > n {
		f.nkeys++
	}
	return track
}

// Summary maintains a filter's gossip summarization incrementally. It
// replaces the clone-and-rediff pattern (snapshot the filter after every
// publish, recompute the full O(filter) diff and compressed payload on
// the next) with bookkeeping proportional to what actually changed:
//
//   - the bit positions newly set since the last Flush — exactly the
//     diff PlanetP gossips — accumulate as inserts happen;
//   - the compressed payload is built only when asked for (Snapshot,
//     SetPayload) and cached until the next bit flips, so a run of
//     publishes between two gossip sends costs one compression.
//
// A Summary owns its filter's mutations: insert through it (or Reset it
// after rebuilding the filter wholesale) or the tracked diff diverges
// from reality. It is not safe for concurrent use; core guards it with
// the peer mutex.
type Summary struct {
	f       *Filter
	pending []uint64 // positions set since the last Flush (unsorted, unique)
	payload []byte   // cached f.Compress(); nil when stale
	gen     uint64   // advances whenever payload goes stale
}

// NewSummary wraps f, which must not be mutated except through the
// summary from here on. Bits already set in f are treated as flushed.
func NewSummary(f *Filter) *Summary { return &Summary{f: f} }

// Filter returns the underlying filter for read-side use (membership
// probes, fill ratio). Callers must not mutate it directly.
func (s *Summary) Filter() *Filter { return s.f }

// Insert adds key to the filter, recording newly set bits for the next
// Flush. It reports whether the filter changed.
func (s *Summary) Insert(key string) bool {
	n := len(s.pending)
	s.pending = s.f.InsertTrack(key, s.pending)
	if len(s.pending) > n {
		s.payload, s.gen = nil, s.gen+1
		return true
	}
	return false
}

// Pending returns the number of bit positions set since the last Flush.
func (s *Summary) Pending() int { return len(s.pending) }

// Flush encodes the diff of everything inserted since the last Flush and
// clears the pending set. The diff is identical to Filter.Diff against a
// clone taken at the last Flush. It compresses nothing: payload is the
// cached compressed filter while that is current (shared, read-only), else nil.
func (s *Summary) Flush() (diff, payload []byte, err error) {
	slices.Sort(s.pending)
	diff, err = EncodeDiff(s.pending, s.f.NumBits())
	if err != nil {
		return nil, nil, err
	}
	s.pending = s.pending[:0]
	return diff, s.payload, nil
}

// Snapshot starts a payload build outside the lock guarding the summary:
// it returns the cached payload if no bit has flipped since it was built,
// else nil and a copy of the filter for the caller to Compress once the
// lock is released, and offer back through SetPayload with gen.
func (s *Summary) Snapshot() (payload []byte, f *Filter, gen uint64) {
	if s.payload != nil {
		return s.payload, nil, s.gen
	}
	return nil, s.f.Clone(), s.gen
}

// SetPayload caches payload, the compression of the Snapshot copy taken at
// gen, unless the filter has changed since. The slice is shared with the
// cache from here on and must not be modified.
func (s *Summary) SetPayload(payload []byte, gen uint64) {
	if gen == s.gen {
		s.payload = payload
	}
}

// Reset replaces the underlying filter wholesale — the compaction path,
// where the owner rebuilds the filter from what it still holds and the
// full payload gossips as a replacement rather than a diff. The pending
// set and payload cache start fresh.
func (s *Summary) Reset(f *Filter) {
	s.f = f
	s.pending = s.pending[:0]
	s.payload, s.gen = nil, s.gen+1
}
