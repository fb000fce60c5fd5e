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
//   - the compressed payload is cached and invalidated only when a bit
//     flips, so republishing an unchanged filter costs nothing.
//
// A Summary owns its filter's mutations: insert through it (or Reset it
// after rebuilding the filter wholesale) or the tracked diff diverges
// from reality. It is not safe for concurrent use; core guards it with
// the peer mutex.
type Summary struct {
	f       *Filter
	pending []uint64 // positions set since the last Flush (unsorted, unique)
	payload []byte   // cached f.Compress(); nil when stale
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
		s.payload = nil
		return true
	}
	return false
}

// Pending returns the number of bit positions set since the last Flush.
func (s *Summary) Pending() int { return len(s.pending) }

// Flush encodes the diff of everything inserted since the last Flush and
// returns it with the full compressed payload, clearing the pending set.
// The diff is identical to Filter.Diff against a clone taken at the last
// Flush; the payload is shared with the cache and must not be modified.
func (s *Summary) Flush() (diff, payload []byte, err error) {
	slices.Sort(s.pending)
	diff, err = EncodeDiff(s.pending, s.f.NumBits())
	if err != nil {
		return nil, nil, err
	}
	s.pending = s.pending[:0]
	return diff, s.Payload(), nil
}

// Payload returns the compressed filter, recomputing it only if the
// filter changed since the last call. The returned slice is shared with
// the cache and must not be modified.
func (s *Summary) Payload() []byte {
	if s.payload == nil {
		s.payload = s.f.Compress()
	}
	return s.payload
}

// Reset replaces the underlying filter wholesale — the compaction path,
// where the owner rebuilds the filter from what it still holds and the
// full payload gossips as a replacement rather than a diff. The pending
// set and payload cache start fresh.
func (s *Summary) Reset(f *Filter) {
	s.f = f
	s.pending = s.pending[:0]
	s.payload = nil
}
