package search

import (
	"strings"
	"sync/atomic"

	"planetp/internal/lru"
	"planetp/internal/metrics"
)

// IPFCache memoizes per-query IPF maps and peer rankings. The local
// ranking step (equations 1 and 3) is a pure function of the directory's
// filter state and the query's term sequence, so repeated queries —
// persistent queries re-evaluated on gossip arrival, query refinement,
// proxy-search fan-in, benchmark sweeps — can skip the peers × terms
// filter sweep entirely until some filter changes.
//
// Entries are keyed by the literal term sequence and stamped (lru.Cache)
// with the view's version (VersionedView) and the cache's invalidation
// epoch: once either moves, no older entry is returned again. Views that
// cannot version themselves must call Invalidate explicitly when filters
// change (the persistent-query Registry does this on every filter
// notification).
//
// An IPFCache is safe for concurrent use. Cached IPF maps and rankings
// are shared and must be treated as immutable by callers.
type IPFCache struct {
	lru   *lru.Cache[string, ipfStamp, rankEntry]
	epoch atomic.Uint64 // bumped by Invalidate
}

// ipfCacheEntries bounds the cache (LRU): distinct queries on a quiet
// directory, with no version move to retire them, otherwise pile up.
const ipfCacheEntries = 1024

// ipfStamp is the filter state an entry was computed against.
type ipfStamp struct{ version, epoch uint64 }

// rankEntry is what one sweep yields for a query and what the cache
// memoizes: its IPF map with the per-term N_t behind it, its peer ranking,
// and the candidate-peer count they were computed over (equation 1's and
// equation 4's N).
type rankEntry struct {
	ipf   map[string]float64
	nt    []int
	ranks []PeerRank
	peers int
}

// NewIPFCache returns an empty cache.
func NewIPFCache() *IPFCache {
	return &IPFCache{lru: lru.New[string, ipfStamp, rankEntry](ipfCacheEntries)}
}

// Invalidate retires every entry: none is returned again. Nil-safe, so
// optional wiring can call it unconditionally.
func (c *IPFCache) Invalidate() {
	if c != nil {
		c.epoch.Add(1)
	}
}

// Len returns the number of resident entries, retired ones included.
func (c *IPFCache) Len() int { return c.lru.Len() }

// cacheKey identifies a query by its literal term sequence. Order is
// preserved: equation 3 folds IPF weights in term order, and reusing a
// permuted entry could differ in the last float ulp — the cache trades
// hit rate for bit-exact equivalence with the uncached path.
func cacheKey(terms []string) string {
	return strings.Join(terms, "\x00")
}

// IPFRanked returns the query's IPF map and peer ranking, from cache when
// fresh — the memoized equivalent of IPF followed by RankPeers. reg (may
// be nil) receives search_ipf_cache_hits_total / _misses_total.
func (c *IPFCache) IPFRanked(view FilterView, terms []string, reg *metrics.Registry) (map[string]float64, []PeerRank) {
	q := newQuery(view, terms)
	e := c.rankFor(&q, reg)
	return e.ipf, e.ranks
}

// rankFor is IPFRanked over an already-built query prober, returning the
// whole entry: with the peer count in it, a hit never asks the view for
// its peers.
func (c *IPFCache) rankFor(q *query, reg *metrics.Registry) rankEntry {
	key := cacheKey(q.terms)
	// Stamped before the sweep: a result computed while a filter changed
	// is stored under the state it started from, which no later lookup names.
	stamp := ipfStamp{epoch: c.epoch.Load()}
	if vv, ok := q.view.(VersionedView); ok {
		stamp.version, _ = vv.ViewVersion()
	}
	if e, ok, _ := c.lru.Get(key, stamp); ok {
		reg.Counter("search_ipf_cache_hits_total").Inc()
		return e
	}
	reg.Counter("search_ipf_cache_misses_total").Inc()

	// Compute outside any lock: sweeps can be long and concurrent
	// searches for different terms should overlap.
	e := q.ipfRanked()
	c.lru.Put(key, stamp, e, 1)
	return e
}
