// Package filtercache keeps a peer's view of remote Bloom filters
// probeable under a byte budget.
//
// The directory replica stores one Golomb-compressed Bloom filter per
// remote peer. The query engine wants to probe those filters on every
// search, and decompressing each into a full bitset (the pre-cache
// behaviour) costs O(N × filter bytes) resident memory — ~50 KB per peer
// at the paper's geometry, which is what caps a node's community size.
//
// Two tiers share one budget. The base (index.go) lists, for each bit
// position, the peers whose filter sets it, so a query looks its digests'
// positions up instead of probing every filter. The delta answers every
// other row: a recently probed peer's filter decoded into the smaller of a
// bloom.Compact (set-bit positions bucketed by their high bits, about
// 2.5 B each) and the bloom.Filter bitset (nbits/8 bytes), as the wire
// header's set-bit count decides, stamped with the peer's record version
// (a probe at any other version is a miss) and evicted
// least-recently-probed first.
//
// Eviction is cheap to undo — the compressed payload still lives in the
// directory — so the budget can be small without correctness risk: a
// probe of an evicted peer is a miss, never a wrong answer.
package filtercache

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/lru"
	"planetp/internal/metrics"
)

// Source supplies the authoritative compressed filter for a peer: the
// wire payload (bloom.Compress encoding) and the record version it
// belongs to. A false ok means the peer is unknown or carries no filter.
type Source interface {
	Payload(id directory.PeerID) (payload []byte, ver directory.Version, ok bool)
}

// DefaultBudget bounds total resident bytes. 64 MiB holds the compact
// form of ~13k paper-geometry peers with 1000 terms each, or ~1300 dense
// filters as bitsets.
const DefaultBudget = 64 << 20

// Config parameterizes a Cache. Zero values select the defaults.
type Config struct {
	// Budget is the maximum resident bytes of decoded filters. <0 keeps
	// only a minimal working set (one entry).
	Budget int64
	// Metrics receives core_filter_cache_{hits,misses,evictions,
	// resident_bytes} and the base's filtercache_* instruments. nil keeps
	// the counts private to Stats.
	Metrics *metrics.Registry
}

// Stats is a point-in-time summary of cache state.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	ResidentBytes int64
	Entries       int
}

// probe is a decoded filter in either form; both are immutable once
// cached, so probing runs outside every lock.
type probe interface {
	ContainsDigest(d bloom.Digest) bool
	SizeBytes() int
}

// decode builds the smaller form of a wire payload. Validation is
// DecodeCompact's and Decompress's own (they accept the same inputs). A
// variable so a test can count decodes.
var decode = func(payload []byte) (probe, error) {
	if bloom.CompactSmaller(payload) {
		return bloom.DecodeCompact(payload)
	}
	return bloom.Decompress(payload)
}

// Cache is the filter cache. All methods are safe for concurrent use.
type Cache struct {
	src    Source
	budget int64
	lru    *lru.Cache[directory.PeerID, directory.Version, probe]

	// base is the position-major tier (noIndex until a sweep first
	// builds); debt is the build units the delta's probes and the masked
	// rows have cost since its build; building makes the rebuild
	// single-flight.
	base     atomic.Pointer[index]
	debt     atomic.Int64
	building atomic.Bool

	// failed maps a peer to the version at which its payload last failed
	// to decode, outside the byte budget: a corrupt record costs one
	// decode per version, not one per probe. Invalidate clears it.
	failed sync.Map

	hits       *metrics.Counter
	misses     *metrics.Counter
	evictions  *metrics.Counter // version churn, invalidation and budget pressure
	resident   *metrics.Gauge
	indexRows  *metrics.Gauge
	indexBytes *metrics.Gauge
	rebuilds   *metrics.Counter
	deltaRows  *metrics.Counter
	rebuildUS  *metrics.Histogram
}

// New returns a cache over src.
func New(src Source, cfg Config) *Cache {
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	c := &Cache{
		src:        src,
		budget:     max(cfg.Budget, 0),
		lru:        lru.New[directory.PeerID, directory.Version, probe](max(cfg.Budget, 0)),
		hits:       cfg.Metrics.Counter("core_filter_cache_hits"),
		misses:     cfg.Metrics.Counter("core_filter_cache_misses"),
		evictions:  cfg.Metrics.Counter("core_filter_cache_evictions"),
		resident:   cfg.Metrics.Gauge("core_filter_cache_resident_bytes"),
		indexRows:  cfg.Metrics.Gauge("filtercache_index_rows"),
		indexBytes: cfg.Metrics.Gauge("filtercache_index_bytes"),
		rebuilds:   cfg.Metrics.Counter("filtercache_index_rebuilds_total"),
		deltaRows:  cfg.Metrics.Counter("filtercache_delta_rows_total"),
		rebuildUS:  cfg.Metrics.Histogram("filtercache_rebuild_us", []int64{1e3, 1e4, 1e5, 1e6}),
	}
	c.base.Store(noIndex)
	return c
}

// sweepBuf holds a sweep's working columns, recycled through sweepBufs:
// the base's slot-to-row map and the delta's lookup columns.
type sweepBuf struct {
	rowOf  []int32 // base slot → input row + 1
	delta  []int   // input rows the delta answers
	ids    []directory.PeerID
	vers   []directory.Version
	probes []probe
}

var sweepBufs = sync.Pool{New: func() any { return new(sweepBuf) }}

// Sweep probes the filters of peers ids — ids[i] at record version vers[i],
// payloads[i] its compressed filter (nil: none) — with every digest, and
// sets hits[i*len(ds)+j] where ids[i]'s filter may contain ds[j], leaving
// the other cells alone. A peer without a filter, or whose payload does not
// decode, sets nothing. ids ascend (as Directory.OnlinePayloads returns
// them); a row out of order is still answered, by the delta.
//
// A row whose peer the base holds at vers[i] is answered by the base and
// counts one hit; every other row goes to the delta, whose entries are
// looked up under one lock hold, misses decoding outside it. A sweep that
// finds no base, or finds the debt since the last build (the delta's
// probes and the rows Invalidate masked) above what that build cost, first
// rebuilds the base from its own rows, one sweep at a time.
func (c *Cache) Sweep(ids []directory.PeerID, vers []directory.Version, payloads [][]byte, ds []bloom.Digest, hits []bool) {
	c.sweep(ids, vers, payloads, ds, hits, true)
}

// sweep is Sweep; mayBuild false answers from the tiers as they are, so a
// one-row lookup never replaces a base built from a whole directory.
func (c *Cache) sweep(ids []directory.PeerID, vers []directory.Version, payloads [][]byte, ds []bloom.Digest, hits []bool, mayBuild bool) {
	b, fresh := c.base.Load(), false
	if mayBuild && (c.debt.Load() > b.cost || b.rows == nil && len(ids) > b.seen) && c.building.CompareAndSwap(false, true) {
		b, fresh = c.rebuild(ids, vers, payloads), true
		c.building.Store(false)
	}
	buf := sweepBufs.Get().(*sweepBuf)
	rowOf := slices.Grow(buf.rowOf[:0], len(b.ids))[:len(b.ids)]
	clear(rowOf)
	delta := buf.delta[:0]
	nbase, s := 0, 0
	for i, id := range ids {
		if payloads[i] == nil {
			continue
		}
		if s < len(b.ids) && b.ids[s] < id {
			s = b.seek(s, id)
		}
		if s < len(b.ids) && b.ids[s] == id && b.vers[s] == vers[i] && !b.dead[s].Load() {
			rowOf[s] = int32(i) + 1
			nbase++
			s++
			continue
		}
		delta = append(delta, i)
	}
	if nbase > 0 {
		for j, d := range ds {
			b.probe(d, rowOf, hits[j:], len(ds))
		}
	}
	nhit, nmiss, evicted, answered := 0, 0, 0, 0
	dids, dvers, probes := buf.ids[:0], buf.vers[:0], buf.probes[:0]
	if len(delta) > 0 {
		for _, i := range delta {
			dids, dvers = append(dids, ids[i]), append(dvers, vers[i])
		}
		probes = slices.Grow(probes, len(delta))[:len(delta)] // all nil: each use clears what it used
		evicted = c.lru.GetAll(dids, dvers, probes)
		for k, i := range delta {
			p := probes[k]
			if p != nil {
				nhit++
			} else {
				nmiss++
				var n int
				if p, n = c.fill(ids[i], vers[i], payloads[i]); p == nil {
					continue
				}
				evicted += n
			}
			answered++
			row := hits[i*len(ds) : (i+1)*len(ds)]
			for j, d := range ds {
				if p.ContainsDigest(d) {
					row[j] = true
				}
			}
		}
		clear(probes)
		c.deltaRows.Add(int64(answered))
		if over := answered - b.left; over > 0 {
			c.debt.Add(int64(over*len(ds)) * probeCost)
		}
	}
	buf.rowOf, buf.delta, buf.ids, buf.vers, buf.probes = rowOf, delta, dids, dvers, probes[:0]
	sweepBufs.Put(buf)
	if fresh {
		nmiss += nbase
	} else {
		nhit += nbase
	}
	c.hits.Add(int64(nhit))
	c.misses.Add(int64(nmiss))
	c.evictions.Add(int64(evicted))
	if nmiss > 0 || evicted > 0 {
		c.setResident()
	}
}

// rebuild builds a base from one sweep's rows and installs it. The old
// base is released and the delta shrunk to what the planned base leaves of
// the budget before the new one is laid out, so the two tiers never hold
// more than the budget (sweeps meanwhile go to the delta alone). Peers the
// new base serves then leave the delta. Only rebuild, one at a time, sets
// the delta's budget.
func (c *Cache) rebuild(ids []directory.PeerID, vers []directory.Version, payloads [][]byte) *index {
	start := time.Now()
	old := c.base.Load()
	c.base.Store(&index{cost: old.cost, left: old.left, seen: old.seen})
	x, src := c.admit(ids, vers, payloads)
	evicted, _ := c.lru.SetBudget(c.budget - x.bytes)
	x = c.lay(x, src, ids, vers, payloads)
	c.base.Store(x)
	c.debt.Store(0)
	for _, id := range x.ids {
		c.lru.Delete(id)
	}
	c.lru.SetBudget(c.budget - x.bytes) // rows that failed to decode leave room
	c.evictions.Add(int64(evicted))
	if x.rows != nil {
		c.rebuilds.Inc()
		c.rebuildUS.Observe(time.Since(start).Microseconds())
	}
	c.setResident()
	return x
}

// setResident sets the gauges from both tiers' current state.
func (c *Cache) setResident() {
	x := c.base.Load()
	c.indexRows.Set(int64(len(x.ids)))
	c.indexBytes.Set(x.bytes)
	c.resident.Set(x.bytes + c.lru.Cost())
}

// fill decodes a payload the lookup missed and caches it, returning nil
// when it does not decode; the second result counts the entries the put
// evicted. Two sweeps racing on one peer both decode; the second put
// replaces the first.
func (c *Cache) fill(id directory.PeerID, ver directory.Version, payload []byte) (probe, int) {
	if bad, ok := c.failed.Load(id); ok && bad == ver {
		return nil, 0
	}
	p, err := decode(payload)
	if err != nil {
		c.failed.Store(id, ver)
		return nil, 0
	}
	evicted, _ := c.lru.Put(id, ver, p, int64(p.SizeBytes()))
	return p, evicted
}

// ContainsDigest is a one-row Sweep with id's payload and version read
// from the Source: it reports whether id's filter may contain the key d
// summarizes. An unknown or filterless peer reports false and releases its
// entry.
func (c *Cache) ContainsDigest(id directory.PeerID, d bloom.Digest) bool {
	payload, ver, ok := c.src.Payload(id)
	if !ok || payload == nil {
		c.Invalidate(id)
		return false
	}
	var hit [1]bool
	c.sweep([]directory.PeerID{id}, []directory.Version{ver}, [][]byte{payload}, []bloom.Digest{d}, hit[:], false)
	return hit[0]
}

// Invalidate discards any cached state for id: its delta entry, and its
// base row, which is masked and whose set bits are added to the debt, so
// the bytes of a churned-out filter bring the next rebuild nearer. Call
// when the peer's record is superseded or dropped — the pre-cache
// implementation skipped this and leaked every churned-out peer's
// decompressed filter.
func (c *Cache) Invalidate(id directory.PeerID) {
	c.failed.Delete(id)
	x := c.base.Load()
	s, masked := slices.BinarySearch(x.ids, id)
	if masked = masked && !x.dead[s].Swap(true); masked {
		c.debt.Add(int64(x.nset[s]))
	}
	if ok, _ := c.lru.Delete(id); ok || masked {
		c.evictions.Inc()
		c.setResident()
	}
}

// ResidentBytes returns the current charge of both tiers.
func (c *Cache) ResidentBytes() int64 {
	return c.base.Load().bytes + c.lru.Cost()
}

// Stats returns a snapshot (each field is read on its own). Entries counts
// the base's rows, masked ones included, and the delta's entries.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Evictions:     c.evictions.Value(),
		ResidentBytes: c.ResidentBytes(),
		Entries:       c.lru.Len() + len(c.base.Load().ids),
	}
}
