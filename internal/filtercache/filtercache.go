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
// smaller of two forms: a bloom.Compact (set-bit positions bucketed by
// their high bits, about 2.5 B each, probed by a scan of one bucket) while
// the filter is sparse, the plain bloom.Filter bitset (nbits/8 bytes, O(1)
// probes) once more than about one bit in 20 is set. The wire header's
// set-bit count decides, before anything is decoded.
//
// A query probes every peer at once (Sweep): one lock hold looks up every
// entry, and only the misses decode.
//
// Entries are (re)built from the Source on demand, stamped with the
// peer's record version (a probe at any other version is a miss), and
// evicted least-recently-probed first when the budget is exceeded.
// Eviction is cheap to undo — the compressed payload still lives in the
// directory — so the budget can be small without correctness risk: a
// probe of an evicted peer is a miss, never a wrong answer.
package filtercache

import (
	"slices"
	"sync"

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
	src Source
	lru *lru.Cache[directory.PeerID, directory.Version, probe]

	// failed maps a peer to the version at which its payload last failed
	// to decode, outside the byte budget: a corrupt record costs one
	// decode per version, not one per probe. Invalidate clears it.
	failed sync.Map

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

// probeRows recycles Sweep's lookup column, 16 B of pointer a peer.
var probeRows = sync.Pool{New: func() any { return new([]probe) }}

// Sweep probes the filters of peers ids — ids[i] at record version vers[i],
// payloads[i] its compressed filter (nil: none) — with every digest, and
// sets hits[i*len(ds)+j] where ids[i]'s filter may contain ds[j], leaving
// the other cells alone. Every entry is looked up under one lock hold;
// misses decode outside it, and the counters move once per sweep. A peer
// without a filter, or whose payload does not decode, sets nothing.
func (c *Cache) Sweep(ids []directory.PeerID, vers []directory.Version, payloads [][]byte, ds []bloom.Digest, hits []bool) {
	buf := probeRows.Get().(*[]probe)
	probes := slices.Grow(*buf, len(ids))[:len(ids)] // all nil: each use clears what it used
	evicted := c.lru.GetAll(ids, vers, probes)
	nhit, nmiss := 0, 0
	for i, p := range probes {
		if payloads[i] == nil {
			continue
		}
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
		row := hits[i*len(ds) : (i+1)*len(ds)]
		for j, d := range ds {
			if p.ContainsDigest(d) {
				row[j] = true
			}
		}
	}
	clear(probes)
	*buf = probes[:0]
	probeRows.Put(buf)
	c.hits.Add(int64(nhit))
	c.misses.Add(int64(nmiss))
	c.evictions.Add(int64(evicted))
	if nmiss > 0 || evicted > 0 {
		c.resident.Set(c.lru.Cost())
	}
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
	c.Sweep([]directory.PeerID{id}, []directory.Version{ver}, [][]byte{payload}, []bloom.Digest{d}, hit[:])
	return hit[0]
}

// Invalidate discards any cached state for id. Call when the peer's record
// is superseded or dropped — the pre-cache implementation skipped this and
// leaked every churned-out peer's decompressed filter.
func (c *Cache) Invalidate(id directory.PeerID) {
	c.failed.Delete(id)
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
