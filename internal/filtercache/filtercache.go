// Package filtercache keeps a peer's view of remote Bloom filters
// probeable under a byte budget.
//
// The directory replica stores one Golomb-compressed Bloom filter per
// remote peer. The query engine wants to probe those filters on every
// search, and decompressing each into a full bitset (the pre-cache
// behaviour) costs O(N × filter bytes) resident memory — ~50 KB per peer
// at the paper's geometry, which is what caps a node's community size.
//
// This cache holds each recently probed peer's filter decoded into the
// smaller of two forms: a bloom.Compact (sorted set-bit positions, 4 B
// each, probed by binary search) while the filter is sparse, the plain
// bloom.Filter bitset (nbits/8 bytes, O(1) probes) once more than
// nbits/32 bits are set. The wire header's set-bit count decides, before
// anything is decoded.
//
// Entries are (re)built from the Source on demand, stamped with the
// peer's record version (a probe at any other version is a miss), and
// evicted least-recently-probed first when the budget is exceeded.
// Eviction is cheap to undo — the compressed payload still lives in the
// directory — so the budget can be small without correctness risk: a
// probe of an evicted peer is a miss, never a wrong answer.
package filtercache

import (
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
// form of ~8k paper-geometry peers with 1000 terms each, or ~1300 dense
// filters as bitsets.
const DefaultBudget = 64 << 20

// Config parameterizes a Cache. Zero values select the defaults.
type Config struct {
	// Budget is the maximum resident bytes of decoded filters. <0 keeps
	// only a minimal working set (one entry).
	Budget int64
	// Metrics receives core_filter_cache_{hits,misses,evictions,
	// resident_bytes}. nil keeps the counts private to Stats.
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
	ContainsAllDigests(ds []bloom.Digest) bool
	SizeBytes() int
}

// decode builds the smaller form of a wire payload. Validation is
// DecodeCompact's and Decompress's own (they accept the same inputs).
func decode(payload []byte) (probe, error) {
	if bloom.CompactSmaller(payload) {
		return bloom.DecodeCompact(payload)
	}
	return bloom.Decompress(payload)
}

// Cache is the filter cache. All methods are safe for concurrent use.
type Cache struct {
	src Source
	lru *lru.Cache[directory.PeerID, directory.Version, probe]

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter // version churn, invalidation and budget pressure
	resident  *metrics.Gauge
}

// New returns a cache over src.
func New(src Source, cfg Config) *Cache {
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Cache{
		src:       src,
		lru:       lru.New[directory.PeerID, directory.Version, probe](max(cfg.Budget, 0)),
		hits:      cfg.Metrics.Counter("core_filter_cache_hits"),
		misses:    cfg.Metrics.Counter("core_filter_cache_misses"),
		evictions: cfg.Metrics.Counter("core_filter_cache_evictions"),
		resident:  cfg.Metrics.Gauge("core_filter_cache_resident_bytes"),
	}
}

// view returns id's decoded filter at its current record version; ok is
// false when the peer is unknown, filterless, or its payload is corrupt.
func (c *Cache) view(id directory.PeerID) (probe, bool) {
	payload, ver, ok := c.src.Payload(id)
	if !ok || payload == nil {
		c.Invalidate(id)
		return nil, false
	}
	p, ok, superseded := c.lru.Get(id, ver)
	if ok {
		c.hits.Inc()
		return p, true
	}
	c.misses.Inc()
	if superseded {
		c.evictions.Inc()
	}
	// Decode under no lock: concurrent sweeps decode in parallel (two
	// racing on one peer both decode; the second Put replaces the first).
	p, err := decode(payload)
	if err != nil {
		c.resident.Set(c.lru.Cost()) // the Get may have dropped a superseded entry
		return nil, false
	}
	evicted, resident := c.lru.Put(id, ver, p, int64(p.SizeBytes()))
	c.evictions.Add(int64(evicted))
	c.resident.Set(resident)
	return p, true
}

// ProbeDigests probes id's filter with every digest under one lookup,
// setting hit[i] where it may contain ds[i]; other cells (all of them for
// an unknown or filterless peer) are left alone.
func (c *Cache) ProbeDigests(id directory.PeerID, ds []bloom.Digest, hit []bool) {
	p, ok := c.view(id)
	if !ok {
		return
	}
	for i, d := range ds {
		if p.ContainsDigest(d) {
			hit[i] = true
		}
	}
}

// ContainsDigest probes id's filter with a precomputed digest. Unknown or
// filterless peers report false.
func (c *Cache) ContainsDigest(id directory.PeerID, d bloom.Digest) bool {
	p, ok := c.view(id)
	return ok && p.ContainsDigest(d)
}

// ContainsAllDigests probes id's filter with every digest (conjunctive).
func (c *Cache) ContainsAllDigests(id directory.PeerID, ds []bloom.Digest) bool {
	p, ok := c.view(id)
	return ok && p.ContainsAllDigests(ds)
}

// Contains probes id's filter with a term.
func (c *Cache) Contains(id directory.PeerID, term string) bool {
	return c.ContainsDigest(id, bloom.MakeDigest(term))
}

// Invalidate discards any cached state for id. Call when the peer's record
// is superseded or dropped — the pre-cache implementation skipped this and
// leaked every churned-out peer's decompressed filter.
func (c *Cache) Invalidate(id directory.PeerID) {
	if ok, resident := c.lru.Delete(id); ok {
		c.evictions.Inc()
		c.resident.Set(resident)
	}
}

// ResidentBytes returns the current charge for decoded filters.
func (c *Cache) ResidentBytes() int64 { return c.lru.Cost() }

// Stats returns a snapshot (each field is read on its own).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Evictions:     c.evictions.Value(),
		ResidentBytes: c.lru.Cost(),
		Entries:       c.lru.Len(),
	}
}
