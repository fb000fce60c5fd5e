// Package replica implements PlanetP's content replication and hoarding
// subsystem: popularity-driven replication of hot documents to k peers
// chosen via the brokerage ring, so search hits stay alive when the
// publishing peer churns out. The paper's community is search-only — a
// hit whose owner is offline is a dead link — and explicitly punts
// availability to replication/hoarding; the Jacobs/Harwood
// popularity-based namespace work supplies the recipe reproduced here:
//
//   - Popularity. Every served fetch feeds an exponentially decayed
//     counter (Popularity). A document is hot once its decayed score
//     reaches HotScore.
//
//   - Target. The replication target grows with popularity and is capped
//     by the configured factor: replicas(score) = min(k-1,
//     floor(score/HotScore)). Cold documents get no replicas; the
//     hottest get k-1 beyond the origin.
//
//   - Budget. Replica bodies are excess-capacity storage, bounded by a
//     byte budget. Adopting past the budget evicts the least popular
//     replicas first (and refuses the adoption if it alone exceeds the
//     budget).
//
//   - Durability. Every change to the replica set is a record (PutOp,
//     DropOp) that the peer appends to its one write-ahead log before
//     Apply makes it: an adopted replica survives crash/restart, and a
//     purged one can never resurrect from a torn log.
//
//   - Tombstones. Purging a replica because its origin removed the
//     document (or a higher origin incarnation superseded it) records
//     the origin epoch; re-adoption at that epoch or below is refused,
//     so anti-entropy gossip cannot resurrect removed content.
//
// The Manager holds the local replica set and policy; internal/core owns
// the wiring (ring placement, hoard pushes, Bloom announcement, serving).
package replica

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"planetp/internal/metrics"
	"planetp/internal/store"
)

// Entry is one locally held replica.
type Entry struct {
	// Key is the document id (content hash).
	Key string
	// Origin is the publishing peer's community id.
	Origin int32
	// Epoch is the origin incarnation the content was obtained from (or
	// last validated against). A directory record of the origin at a
	// higher epoch means the content may be superseded.
	Epoch uint32
	// XML is the document body.
	XML string
}

// HotDoc was a hoard pull's advertisement of one hot document. No peer
// sends it since every holder pushes; it stays only because the bench
// module's stub Handler still returns it (ROADMAP 1(a)).
type HotDoc struct {
	Key    string
	Origin int32
	Epoch  uint32
	Score  float64
}

// HotScore is the decayed-popularity threshold for the first replica, and
// twice the score below which a held replica is released (hysteresis).
const HotScore = 2.0

// Config tunes a Manager.
type Config struct {
	// Factor is the replication factor k: the community-wide copy target
	// for the hottest documents, origin included (so at most k-1
	// replicas are placed). 0 or 1 disables replication.
	Factor int
	// Budget bounds resident replica-body bytes (default 64 MiB).
	Budget int64
	// Now is the clock (required; core passes the transport's monotonic
	// clock, tests a fake).
	Now func() time.Duration
	// Metrics receives replica_* instruments (nil = none).
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 64 << 20
	}
	if c.Now == nil {
		c.Now = func() time.Duration { return 0 }
	}
	return c
}

// ErrOverBudget rejects an adoption whose body alone exceeds the budget.
var ErrOverBudget = errors.New("replica: document exceeds hoard budget")

// ErrBadKey rejects a key — keys arrive off the wire — that a record's
// space-separated header line could not carry back: logged, it would
// fail every later recovery.
var ErrBadKey = errors.New("replica: key is empty or contains whitespace")

func checkKey(key string) error {
	if key == "" || strings.ContainsFunc(key, unicode.IsSpace) {
		return ErrBadKey
	}
	return nil
}

// Manager is one peer's replica set + popularity state. Reads are
// thread-safe on their own; the plan-log-Apply sequence that changes the
// set is serialized by the caller (core holds the peer mutex across it),
// so a plan is still valid when its records are applied.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	pop     *Popularity
	entries map[string]Entry
	bytes   int64
	// tombs records purged keys by the origin epoch they were purged
	// under; adoption at or below that epoch is refused forever (the
	// death certificate of the replica layer).
	tombs map[string]uint32

	mDocs, mBytes *metrics.Gauge
	mHits         *metrics.Counter
}

// NewManager builds an empty Manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		pop:     NewPopularity(),
		entries: make(map[string]Entry),
		tombs:   make(map[string]uint32),
	}
	if r := cfg.Metrics; r != nil {
		m.mDocs = r.Gauge("replica_docs")
		m.mBytes = r.Gauge("replica_resident_bytes")
		m.mHits = r.Counter("replica_hits_total")
	}
	return m
}

// Factor returns the configured replication factor.
func (m *Manager) Factor() int { return m.cfg.Factor }

// --- popularity ---

// Hit records one served fetch of key (own document or replica).
func (m *Manager) Hit(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pop.Hit(key, m.cfg.Now())
	if m.mHits != nil {
		m.mHits.Inc()
	}
}

// Seed raises key's popularity to at least score, so a fresh adoption is
// not immediately GC-eligible.
func (m *Manager) Seed(key string, score float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pop.Seed(key, score, m.cfg.Now())
}

// Score returns key's decayed popularity.
func (m *Manager) Score(key string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pop.Score(key, m.cfg.Now())
}

// HotKeys returns the keys at or above the replication threshold, most
// popular first, with their scores.
func (m *Manager) HotKeys() ([]string, []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	keys := m.pop.Above(HotScore, now)
	scores := make([]float64, len(keys))
	for i, k := range keys {
		scores[i] = m.pop.Score(k, now)
	}
	return keys, scores
}

// TargetReplicas is Target at the configured factor.
func (m *Manager) TargetReplicas(score float64) int {
	return Target(score, m.cfg.Factor)
}

// Target computes the replication target for a popularity score under
// replication factor k: the number of replicas wanted beyond the origin,
// growing with popularity and capped at k-1 (the popularity ×
// excess-capacity computation of the Jacobs/Harwood scheme, with the
// budget enforced at adoption time). The live peer and gossipsim's
// replication model both call it.
func Target(score float64, k int) int {
	if k <= 1 || score < HotScore {
		return 0
	}
	return min(int(score/HotScore), k-1)
}

// --- replica set ---

// Get returns the held replica for key.
func (m *Manager) Get(key string) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return e, ok
}

// Has reports whether key is held.
func (m *Manager) Has(key string) bool {
	_, ok := m.Get(key)
	return ok
}

// Len returns the held replica count.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Bytes returns the resident replica-body bytes.
func (m *Manager) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Entries returns the held replicas sorted by key (a copy).
func (m *Manager) Entries() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entriesLocked()
}

func (m *Manager) entriesLocked() []Entry {
	out := make([]Entry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// acceptsLocked reports whether an offered replica would be adopted: not
// already held (at that epoch or newer) and not tombstoned at or above
// the offered epoch.
func (m *Manager) acceptsLocked(key string, epoch uint32) bool {
	if m.tombstonedLocked(key, epoch) {
		return false
	}
	held, ok := m.entries[key]
	return !ok || epoch > held.Epoch
}

// PlanPut returns the records that adopt e, for the caller to log as one
// write-ahead batch and then Apply in order: a drop per replica the
// budget evicts (least popular first, ties by key, never e itself), then
// the put. It returns no records when acceptsLocked is false, and
// ErrOverBudget when e cannot fit whatever is evicted.
func (m *Manager) PlanPut(e Entry) ([]store.Op, error) {
	if err := checkKey(e.Key); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.acceptsLocked(e.Key, e.Epoch) {
		return nil, nil
	}
	size := int64(len(e.XML))
	if size > m.cfg.Budget {
		return nil, ErrOverBudget
	}
	var ops []store.Op
	need := m.bytes - int64(len(m.entries[e.Key].XML)) + size - m.cfg.Budget
	if need > 0 {
		now := m.cfg.Now()
		cands := m.entriesLocked() // key-sorted, and the sort is stable: ties fall by key
		sort.SliceStable(cands, func(i, j int) bool {
			return m.pop.Score(cands[i].Key, now) < m.pop.Score(cands[j].Key, now)
		})
		for _, c := range cands {
			if need <= 0 {
				break
			}
			if c.Key == e.Key {
				continue
			}
			ops = append(ops, DropOp(c.Key, c.Epoch, false))
			need -= int64(len(c.XML))
		}
		if need > 0 {
			return nil, ErrOverBudget
		}
	}
	return append(ops, PutOp(e)), nil
}

// PlanDrop returns the record that releases key and, with tomb, certifies
// it dead at the origin's epoch even if it is not held (a purge can arrive
// before the adoption it forbids). It returns no record when there is
// nothing to log: the key is not held and either no tombstone is asked for
// or one at or above epoch already exists (a repeated purge).
func (m *Manager) PlanDrop(key string, epoch uint32, tomb bool) ([]store.Op, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, held := m.entries[key]; !held && (!tomb || m.tombstonedLocked(key, epoch)) {
		return nil, nil
	}
	return []store.Op{DropOp(key, epoch, tomb)}, nil
}

// Apply makes the change one replica record describes — a record just
// logged, or one replayed at recovery — and returns the entry it names
// and whether the held set changed: a put inserted it (a put that
// acceptsLocked would refuse is skipped), a drop removed it. A drop with
// the tombstone flag also records the origin epoch as a death certificate:
// the content must never be re-adopted at that epoch or below, not by a
// holder's push, not by a replayed announcement, and — the certificate
// being part of the logged record — not after a restart.
func (m *Manager) Apply(op store.Op) (Entry, bool, error) {
	switch op.Kind {
	case store.OpReplicaPut:
		e, err := decodePutOp(op.Data)
		if err != nil {
			return Entry{}, false, err
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.acceptsLocked(e.Key, e.Epoch) {
			return e, false, nil
		}
		m.insertLocked(e)
		return e, true, nil
	case store.OpReplicaDrop:
		key, epoch, tomb, err := decodeDropOp(op.Data)
		if err != nil {
			return Entry{}, false, err
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		e, held := m.entries[key]
		if held {
			m.bytes -= int64(len(e.XML))
			delete(m.entries, key)
			m.gauge()
		}
		if te, ok := m.tombs[key]; tomb && (!ok || epoch > te) {
			m.tombs[key] = epoch
		}
		e.Key = key
		return e, held, nil
	}
	return Entry{}, false, fmt.Errorf("replica: %v is not a replica record", op)
}

// ReleaseCandidates returns held replicas whose popularity has decayed
// below the release threshold (the popularity-decay GC rule).
func (m *Manager) ReleaseCandidates() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	var out []Entry
	for _, e := range m.entriesLocked() {
		if m.pop.Score(e.Key, now) < HotScore/2 {
			out = append(out, e)
		}
	}
	return out
}

// Tombstoned reports whether key carries a death certificate at or above
// epoch.
func (m *Manager) Tombstoned(key string, epoch uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tombstonedLocked(key, epoch)
}

func (m *Manager) tombstonedLocked(key string, epoch uint32) bool {
	te, ok := m.tombs[key]
	return ok && epoch <= te
}

// insertLocked maintains the map and byte accounting.
func (m *Manager) insertLocked(e Entry) {
	m.bytes += int64(len(e.XML)) - int64(len(m.entries[e.Key].XML))
	m.entries[e.Key] = e
	m.gauge()
}

func (m *Manager) gauge() {
	if m.mDocs != nil {
		m.mDocs.Set(int64(len(m.entries)))
		m.mBytes.Set(m.bytes)
	}
}

// State returns the held replicas (sorted by key) and the tombstones, as
// one consistent copy, for the peer's snapshot.
func (m *Manager) State() ([]Entry, map[string]uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tombs := make(map[string]uint32, len(m.tombs))
	for k, v := range m.tombs {
		tombs[k] = v
	}
	return m.entriesLocked(), tombs
}

// Restore loads a State into an empty manager.
func (m *Manager) Restore(entries []Entry, tombs map[string]uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range tombs {
		m.tombs[k] = v
	}
	for _, e := range entries {
		m.insertLocked(e)
	}
}

// --- WAL record encoding ---
//
//	OpReplicaPut:  "<origin> <epoch> <key>\n<xml>"
//	OpReplicaDrop: "<epoch> <tomb> <key>"

// PutOp is the record of adopting e.
func PutOp(e Entry) store.Op {
	return store.Op{
		Kind: store.OpReplicaPut,
		Data: strconv.FormatInt(int64(e.Origin), 10) + " " +
			strconv.FormatUint(uint64(e.Epoch), 10) + " " + e.Key + "\n" + e.XML,
	}
}

// DropOp is the record of releasing key; with tomb it also certifies the
// content dead at the origin's epoch.
func DropOp(key string, epoch uint32, tomb bool) store.Op {
	t := "0"
	if tomb {
		t = "1"
	}
	return store.Op{
		Kind: store.OpReplicaDrop,
		Data: strconv.FormatUint(uint64(epoch), 10) + " " + t + " " + key,
	}
}

// DropKey returns the key a drop record names, for a caller with work to do
// before the record is applied.
func DropKey(op store.Op) (string, error) {
	key, _, _, err := decodeDropOp(op.Data)
	return key, err
}

func decodePutOp(data string) (Entry, error) {
	head, xml, ok := strings.Cut(data, "\n")
	if !ok {
		return Entry{}, errors.New("replica: put record missing body")
	}
	f := strings.Fields(head)
	if len(f) != 3 {
		return Entry{}, fmt.Errorf("replica: bad put record header %q", head)
	}
	origin, err := strconv.ParseInt(f[0], 10, 32)
	if err != nil {
		return Entry{}, fmt.Errorf("replica: bad origin: %w", err)
	}
	epoch, err := strconv.ParseUint(f[1], 10, 32)
	if err != nil {
		return Entry{}, fmt.Errorf("replica: bad epoch: %w", err)
	}
	return Entry{Key: f[2], Origin: int32(origin), Epoch: uint32(epoch), XML: xml}, nil
}

func decodeDropOp(data string) (key string, epoch uint32, tomb bool, err error) {
	f := strings.Fields(data)
	if len(f) != 3 {
		return "", 0, false, fmt.Errorf("replica: bad drop record %q", data)
	}
	e, err := strconv.ParseUint(f[0], 10, 32)
	if err != nil {
		return "", 0, false, fmt.Errorf("replica: bad epoch: %w", err)
	}
	return f[2], uint32(e), f[1] == "1", nil
}
