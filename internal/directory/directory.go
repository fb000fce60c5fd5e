// Package directory implements PlanetP's replicated global directory
// (Section 3): every peer maintains a local copy of the membership list —
// peer ids, addresses, on/off-line status, and a versioned Bloom-filter
// summary per peer — kept loosely consistent by the gossiping layer.
//
// Peer ids are small dense integers so that a simulated community of
// several thousand peers (each holding a directory over all the others)
// fits comfortably in memory. The per-peer hot state is stored in
// columns (versions, flag bytes, wire sizes) rather than a struct-per-peer
// table: the columns carry no padding, the rarely populated off-line
// timestamp lives in a sparse side map, and live-mode cold state
// (addresses, compressed Bloom filters) lives in a lazily allocated side
// table with interned address strings. At 100k peers the hot table costs
// ~17 bytes/peer instead of the 32 a padded struct row would take.
//
// Off-line status is a local opinion — the paper explicitly does not
// gossip leaves; a peer marks another off-line when a send to it fails and
// flips it back when any newer record arrives. Consequently the directory
// digest and summaries cover only (id, version), never status.
package directory

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PeerID identifies a community member. IDs are dense small integers
// assigned at community-formation (simulation) or registration (live)
// time.
type PeerID int32

// None is the invalid PeerID.
const None PeerID = -1

// Version orders the states of one peer's record. Epoch increments on
// every rejoin (a new incarnation); Seq increments whenever the peer's
// Bloom filter changes within an incarnation. Epoch 0 means "unknown":
// live peers start at Epoch 1.
type Version struct {
	Epoch uint32
	Seq   uint32
}

// Less reports whether v orders strictly before o.
func (v Version) Less(o Version) bool {
	if v.Epoch != o.Epoch {
		return v.Epoch < o.Epoch
	}
	return v.Seq < o.Seq
}

// IsZero reports whether v is the unknown version.
func (v Version) IsZero() bool { return v.Epoch == 0 && v.Seq == 0 }

// String implements fmt.Stringer.
func (v Version) String() string { return fmt.Sprintf("%d.%d", v.Epoch, v.Seq) }

// Class is a peer's connectivity class, used by the bandwidth-aware
// gossiping variant (Section 7.2): Fast is 512 Kb/s or better, Slow is
// modem-speed.
type Class uint8

// Connectivity classes.
const (
	Fast Class = iota
	Slow
)

// Record is the gossiped state of one peer: everything in the directory
// except the local-only on/off-line opinion.
type Record struct {
	ID    PeerID
	Ver   Version
	Class Class
	// Addr is the peer's contact address (live mode; empty in
	// simulation).
	Addr string
	// PayloadSize is the wire size in bytes of the peer's full
	// compressed Bloom filter. In live mode it equals len(Payload).
	PayloadSize int32
	// DiffSize is the wire size of the most recent Bloom-filter diff
	// (the rumor payload); the simulator charges this for rumor pushes.
	DiffSize int32
	// Payload is the full compressed Bloom filter (live mode only). A
	// peer's own row in its own directory carries none: the gossip node
	// stamps it on each copy that leaves (gossip.Node.SetSelfPayload).
	Payload []byte
}

// Entry is the directory's per-peer hot state, composed on read from the
// internal columns (the directory no longer stores Entry rows).
type Entry struct {
	Ver          Version
	Known        bool
	Online       bool
	Class        Class
	PayloadSize  int32
	DiffSize     int32
	OfflineSince time.Duration
}

// Per-peer flag bits (one byte per peer in the flags column).
const (
	flagKnown uint8 = 1 << iota
	flagOnline
	flagSlow
)

// meta holds live-mode cold state.
type meta struct {
	addr    string
	payload []byte
}

// tombstone is a death certificate (Demers et al.): the version at which a
// record was garbage-collected by DropDead. Without it a dropped record
// resurrects forever — the dropper's next anti-entropy exchange with any
// peer that has not yet dropped it pulls the dead record back (marked
// on-line, with a fresh off-line clock), so the community never globally
// forgets a departed member. The certificate rejects re-learning any
// version up to the dropped one; a genuine rejoin carries a higher epoch
// and supersedes it.
type tombstone struct {
	ver Version
}

// Directory is one peer's replica of the global directory. It is
// thread-safe: the live transport receives messages concurrently.
type Directory struct {
	mu   sync.RWMutex
	self PeerID

	// Columnar per-peer hot state, indexed by PeerID. Parallel columns
	// instead of an []Entry row table: no padding, and the cold
	// OfflineSince stamp (populated only while a peer is believed
	// off-line) lives in the sparse offSince map.
	vers     []Version
	flags    []uint8
	paySize  []int32
	diffSize []int32
	offSince map[PeerID]time.Duration

	meta   map[PeerID]*meta
	intern map[string]string // address string interning
	tombs  map[PeerID]tombstone

	digest  uint64
	nKnown  int
	nOnline int

	// gen counts observable mutations (accepted upserts, on/off-line
	// flips, drops). Unlike digest it also covers the local on/off-line
	// opinion, which changes search candidate sets; the query engine's
	// IPF/rank caches key on it. Atomic so readers skip the lock.
	gen atomic.Uint64

	// cached summary, shared immutably; nil when stale.
	summaryCache []Version

	// onEvict, when set, is called (outside the lock) with the ids whose
	// records were superseded or dropped, so downstream caches holding
	// decoded state for the old version can release it.
	onEvict func(ids []PeerID)
}

// New returns a directory for peer self in a community whose id space is
// [0, capacity). The directory starts empty except for awareness of the id
// space size; callers insert records (including self's) via Upsert.
func New(self PeerID, capacity int) *Directory {
	return &Directory{
		self:     self,
		vers:     make([]Version, capacity),
		flags:    make([]uint8, capacity),
		paySize:  make([]int32, capacity),
		diffSize: make([]int32, capacity),
		offSince: make(map[PeerID]time.Duration),
		meta:     make(map[PeerID]*meta),
		intern:   make(map[string]string),
		tombs:    make(map[PeerID]tombstone),
	}
}

// Self returns the owning peer's id.
func (d *Directory) Self() PeerID { return d.self }

// Capacity returns the size of the id space.
func (d *Directory) Capacity() int { return len(d.vers) }

// SetOnEvict registers a callback invoked — outside the directory lock,
// after the mutation commits — with the ids whose records were superseded
// by a newer version or garbage-collected by DropDead. Filter caches hook
// this to release decoded state promptly instead of leaking it until the
// next probe happens to notice the version change.
func (d *Directory) SetOnEvict(fn func(ids []PeerID)) {
	d.mu.Lock()
	d.onEvict = fn
	d.mu.Unlock()
}

// inRange reports whether id indexes the columns.
func (d *Directory) inRange(id PeerID) bool {
	return int(id) >= 0 && int(id) < len(d.vers)
}

// knownLocked reports whether id holds a record.
func (d *Directory) knownLocked(id PeerID) bool {
	return d.inRange(id) && d.flags[id]&flagKnown != 0
}

// entryLocked composes the public Entry view from the columns.
func (d *Directory) entryLocked(id PeerID) Entry {
	fl := d.flags[id]
	e := Entry{
		Ver:         d.vers[id],
		Known:       fl&flagKnown != 0,
		Online:      fl&flagOnline != 0,
		PayloadSize: d.paySize[id],
		DiffSize:    d.diffSize[id],
	}
	if fl&flagSlow != 0 {
		e.Class = Slow
	}
	if fl&flagKnown != 0 && fl&flagOnline == 0 {
		e.OfflineSince = d.offSince[id]
	}
	return e
}

// internLocked returns a canonical instance of addr. Gossip re-delivers
// the same contact address many times (every record transfer decodes a
// fresh string); interning keeps one copy per distinct address.
func (d *Directory) internLocked(addr string) string {
	if s, ok := d.intern[addr]; ok {
		return s
	}
	d.intern[addr] = addr
	return addr
}

// recHash mixes an (id, version) pair for the incremental digest.
func recHash(id PeerID, v Version) uint64 {
	x := uint64(id)<<40 ^ uint64(v.Epoch)<<20 ^ uint64(v.Seq)
	// SplitMix64 finalizer: good avalanche for the XOR accumulator.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Upsert merges rec into the directory. It returns true when rec is newer
// than the stored version (the caller should then treat it as news worth
// rumoring). Any accepted record marks the peer on-line: hearing about a
// peer implies it recently announced something.
func (d *Directory) Upsert(rec Record) bool {
	d.mu.Lock()
	accepted, superseded := d.upsertLocked(rec)
	cb := d.onEvict
	d.mu.Unlock()
	if superseded && cb != nil {
		cb([]PeerID{rec.ID})
	}
	return accepted
}

// upsertLocked does the Upsert work; the second result reports whether an
// existing record was replaced by a newer version (eviction-hook food).
func (d *Directory) upsertLocked(rec Record) (accepted, superseded bool) {
	if !d.inRange(rec.ID) {
		return false, false
	}
	if tomb, ok := d.tombs[rec.ID]; ok {
		if !tomb.ver.Less(rec.Ver) {
			// Death certificate: this incarnation (or older) was already
			// garbage-collected here; do not resurrect it.
			return false, false
		}
		// A strictly newer version is a genuine rejoin; the certificate
		// has served its purpose.
		delete(d.tombs, rec.ID)
	}
	id := rec.ID
	known := d.flags[id]&flagKnown != 0
	if known && !d.vers[id].Less(rec.Ver) {
		return false, false
	}
	if known {
		d.digest ^= recHash(id, d.vers[id])
		superseded = true
	} else {
		d.nKnown++
	}
	d.digest ^= recHash(id, rec.Ver)
	if d.flags[id]&flagOnline == 0 {
		d.nOnline++
	}
	d.vers[id] = rec.Ver
	fl := flagKnown | flagOnline
	if rec.Class == Slow {
		fl |= flagSlow
	}
	d.flags[id] = fl
	d.paySize[id] = rec.PayloadSize
	d.diffSize[id] = rec.DiffSize
	delete(d.offSince, id)
	if rec.Addr != "" || rec.Payload != nil {
		m := d.meta[id]
		if m == nil {
			m = &meta{}
			d.meta[id] = m
		}
		if rec.Addr != "" {
			m.addr = d.internLocked(rec.Addr)
		}
		if rec.Payload != nil {
			m.payload = rec.Payload
		}
	}
	d.summaryCache = nil
	d.gen.Add(1)
	return true, superseded
}

// Get returns the full record for id and whether it is known.
func (d *Directory) Get(id PeerID) (Record, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.getLocked(id)
}

func (d *Directory) getLocked(id PeerID) (Record, bool) {
	if !d.knownLocked(id) {
		return Record{}, false
	}
	e := d.entryLocked(id)
	rec := Record{
		ID: id, Ver: e.Ver, Class: e.Class,
		PayloadSize: e.PayloadSize, DiffSize: e.DiffSize,
	}
	if m := d.meta[id]; m != nil {
		rec.Addr = m.addr
		rec.Payload = m.payload
	}
	return rec, true
}

// Payload returns the compressed Bloom-filter payload and version for id.
// ok is false when the peer is unknown or carries no payload. This is the
// filtercache.Source access path: unlike Get it does not compose a Record.
func (d *Directory) Payload(id PeerID) ([]byte, Version, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.knownLocked(id) {
		return nil, Version{}, false
	}
	m := d.meta[id]
	if m == nil || m.payload == nil {
		return nil, d.vers[id], false
	}
	return m.payload, d.vers[id], true
}

// Entry returns the hot state for id.
func (d *Directory) Entry(id PeerID) (Entry, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.knownLocked(id) {
		return Entry{}, false
	}
	return d.entryLocked(id), true
}

// VersionOf returns the known version of id (zero Version if unknown).
func (d *Directory) VersionOf(id PeerID) Version {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.inRange(id) {
		return Version{}
	}
	return d.vers[id]
}

// MarkOffline records the local opinion that id is off-line as of now.
// Per the paper this is never gossiped and does not affect the digest.
func (d *Directory) MarkOffline(id PeerID, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.knownLocked(id) || d.flags[id]&flagOnline == 0 {
		return
	}
	d.flags[id] &^= flagOnline
	d.offSince[id] = now
	d.nOnline--
	d.gen.Add(1)
}

// MarkOnline flips the local opinion back (used when a peer hears directly
// from id, e.g. receives any message from it).
func (d *Directory) MarkOnline(id PeerID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.knownLocked(id) || d.flags[id]&flagOnline != 0 {
		return
	}
	d.flags[id] |= flagOnline
	delete(d.offSince, id)
	d.nOnline++
	d.gen.Add(1)
}

// DropDead removes every record that has been continuously off-line for at
// least tDead (Section 3: assumed to have left permanently). It returns
// the ids dropped. Each drop leaves a death certificate so anti-entropy
// with a peer that has not yet dropped the record cannot resurrect it.
// Certificates are kept until a genuine rejoin (higher epoch) supersedes
// them: purging them on any clock re-opens the resurrection cycle,
// because replicas drop the same record at widely spread times (failure
// detection is randomized and every off-line clock starts when that
// replica's own sends first fail) and one expired certificate next to one
// laggard holder re-seeds the dead record community-wide. The certificate
// map needs no purge to stay bounded — ids are confined to [0, capacity),
// so it never outgrows the entry table it shadows.
func (d *Directory) DropDead(tDead time.Duration, now time.Duration) []PeerID {
	d.mu.Lock()
	var dropped []PeerID
	for id, since := range d.offSince {
		if d.flags[id]&flagKnown == 0 || now-since < tDead {
			continue
		}
		d.digest ^= recHash(id, d.vers[id])
		d.tombs[id] = tombstone{ver: d.vers[id]}
		d.vers[id] = Version{}
		d.flags[id] = 0
		d.paySize[id] = 0
		d.diffSize[id] = 0
		delete(d.offSince, id)
		delete(d.meta, id)
		d.nKnown--
		dropped = append(dropped, id)
	}
	if dropped != nil {
		// The off-line map iterates in arbitrary order; sort so drop
		// notifications (and everything downstream, e.g. the simulator's
		// OnDrop hooks) stay deterministic.
		sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
		d.summaryCache = nil
		d.gen.Add(1)
	}
	cb := d.onEvict
	d.mu.Unlock()
	if dropped != nil && cb != nil {
		cb(dropped)
	}
	return dropped
}

// Generation returns a counter that advances on every observable mutation
// (accepted upsert, on/off-line flip, drop). Two equal generations imply
// an unchanged directory; search layers use it to invalidate caches keyed
// on directory state. Reads take no lock.
func (d *Directory) Generation() uint64 { return d.gen.Load() }

// Digest returns a 64-bit fingerprint of the (id, version) state. Two
// directories with equal digests hold the same versions with overwhelming
// probability; the gossip layer uses this to skip summary exchanges
// between converged peers (a pure execution optimization — wire accounting
// still charges the full summary).
func (d *Directory) Digest() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.digest
}

// NumKnown returns the number of known records.
func (d *Directory) NumKnown() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nKnown
}

// NumOnline returns the number of records currently believed on-line.
func (d *Directory) NumOnline() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nOnline
}

// Summary returns the dense version vector (index = PeerID; zero Version =
// unknown). The returned slice is shared and immutable: callers must not
// modify it. Successive calls between mutations return the same slice, so
// converged anti-entropy costs no allocation.
func (d *Directory) Summary() []Version {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.summaryCache == nil {
		s := make([]Version, len(d.vers))
		for id := range d.vers {
			if d.flags[id]&flagKnown != 0 {
				s[id] = d.vers[id]
			}
		}
		d.summaryCache = s
	}
	return d.summaryCache
}

// SummaryRange returns the version-vector chunk covering ids
// [from, from+limit): chunk[i] is the version of peer from+i (zero =
// unknown). next is the cursor for the following chunk, or None when this
// chunk reaches the end of the id space. known counts the non-zero
// versions in the chunk (wire accounting charges per known record). The
// chunk is freshly allocated and bounded by limit — this is the streaming
// anti-entropy path, which never materializes the full vector.
func (d *Directory) SummaryRange(from PeerID, limit int) (chunk []Version, next PeerID, known int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.vers)
	if from < 0 {
		from = 0
	}
	if int(from) >= n || limit <= 0 {
		return nil, None, 0
	}
	end := int(from) + limit
	if end > n {
		end = n
	}
	chunk = make([]Version, end-int(from))
	for i := range chunk {
		id := int(from) + i
		if d.flags[id]&flagKnown != 0 {
			chunk[i] = d.vers[id]
			known++
		}
	}
	if end == n {
		return chunk, None, known
	}
	return chunk, PeerID(end), known
}

// Missing compares the local state against a remote summary and returns
// the ids (paired with the local version, for diff-aware pulls) for which
// the remote side has strictly newer information.
type NeedEntry struct {
	ID   PeerID
	Have Version // zero if entirely unknown locally
}

// Missing returns what to pull from a peer whose summary is remote.
func (d *Directory) Missing(remote []Version) []NeedEntry {
	return d.MissingRange(remote, 0)
}

// MissingRange is Missing for a summary chunk whose index 0 corresponds
// to peer id base (streaming anti-entropy compares one bounded chunk at a
// time).
func (d *Directory) MissingRange(remote []Version, base PeerID) []NeedEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if base < 0 {
		return nil
	}
	var need []NeedEntry
	n := len(remote)
	if max := len(d.vers) - int(base); n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		rv := remote[i]
		if rv.IsZero() {
			continue
		}
		id := base + PeerID(i)
		if d.flags[id]&flagKnown == 0 || d.vers[id].Less(rv) {
			// A certified-dead version is not worth pulling: Upsert would
			// reject it anyway. Skipping it here saves the wasted record
			// transfer on every exchange until the remote drops it too.
			if tomb, ok := d.tombs[id]; ok && !tomb.ver.Less(rv) {
				continue
			}
			need = append(need, NeedEntry{ID: id, Have: d.vers[id]})
		}
	}
	return need
}

// PickFilter restricts PickOnline's choice.
type PickFilter func(id PeerID, e Entry) bool

// PickOnline returns a uniformly random known-on-line peer other than self
// satisfying filter (nil filter accepts all). It returns (None, false)
// when no candidate exists. The implementation probes random ids first —
// O(1) when most peers are on-line — and falls back to a linear scan.
func (d *Directory) PickOnline(rng *rand.Rand, filter PickFilter) (PeerID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.vers)
	if n == 0 || d.nOnline == 0 {
		return None, false
	}
	ok := func(id PeerID) bool {
		if d.flags[id]&(flagKnown|flagOnline) != flagKnown|flagOnline || id == d.self {
			return false
		}
		return filter == nil || filter(id, d.entryLocked(id))
	}
	for attempt := 0; attempt < 64; attempt++ {
		id := PeerID(rng.Intn(n))
		if ok(id) {
			return id, true
		}
	}
	// Rare fallback: reservoir-sample the eligible set.
	var chosen PeerID = None
	count := 0
	for id := 0; id < n; id++ {
		if ok(PeerID(id)) {
			count++
			if rng.Intn(count) == 0 {
				chosen = PeerID(id)
			}
		}
	}
	return chosen, chosen != None
}

// PickOffline returns a uniformly random known-off-line peer other than
// self, or (None, false) when every known peer is on-line. The gossip
// layer uses it to probe suspected-dead peers for recovery — the path by
// which a healed partition or a transiently unreachable peer is
// rediscovered. Linear reservoir scan in id order — NOT over the sparse
// off-line map, whose iteration order would consume the shared RNG
// nondeterministically and break simulator reproducibility.
func (d *Directory) PickOffline(rng *rand.Rand) (PeerID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var chosen PeerID = None
	count := 0
	for id := range d.flags {
		if d.flags[id]&flagKnown != 0 && d.flags[id]&flagOnline == 0 && PeerID(id) != d.self {
			count++
			if rng.Intn(count) == 0 {
				chosen = PeerID(id)
			}
		}
	}
	return chosen, chosen != None
}

// OnlineIDs returns the ids currently believed on-line (excluding none —
// self is included if its record is present and on-line).
func (d *Directory) OnlineIDs() []PeerID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PeerID, 0, d.nOnline)
	for id := range d.flags {
		if d.flags[id]&(flagKnown|flagOnline) == flagKnown|flagOnline {
			out = append(out, PeerID(id))
		}
	}
	return out
}

// SampleOnline returns a uniformly random sample of at most max
// known-on-line records other than self, for peer-exchange replies
// (bootstrap discovery). Each record carries the peer's address, class,
// and wire sizes but not its Bloom-filter payload: discovery needs
// contacts, not content — a requester pulls filters through normal
// anti-entropy once it knows who exists. Reservoir sampling keeps the
// pass linear with a max-bounded allocation.
func (d *Directory) SampleOnline(rng *rand.Rand, max int) []Record {
	if max <= 0 {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []Record
	count := 0
	for id := range d.flags {
		if d.flags[id]&(flagKnown|flagOnline) != flagKnown|flagOnline || PeerID(id) == d.self {
			continue
		}
		count++
		if len(out) < max {
			out = append(out, d.sampleRecordLocked(PeerID(id)))
		} else if j := rng.Intn(count); j < max {
			out[j] = d.sampleRecordLocked(PeerID(id))
		}
	}
	return out
}

// sampleRecordLocked builds a payload-free record for SampleOnline.
func (d *Directory) sampleRecordLocked(id PeerID) Record {
	e := d.entryLocked(id)
	rec := Record{
		ID: id, Ver: e.Ver, Class: e.Class,
		PayloadSize: e.PayloadSize, DiffSize: e.DiffSize,
	}
	if m := d.meta[id]; m != nil {
		rec.Addr = m.addr
	}
	return rec
}

// KnownIDs returns all known ids.
func (d *Directory) KnownIDs() []PeerID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PeerID, 0, d.nKnown)
	for id := range d.flags {
		if d.flags[id]&flagKnown != 0 {
			out = append(out, PeerID(id))
		}
	}
	return out
}
