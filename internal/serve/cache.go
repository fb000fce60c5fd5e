package serve

import (
	"strconv"
	"strings"

	"planetp/internal/core"
	"planetp/internal/lru"
)

// resultCache memoizes fully rendered search responses keyed by (query
// terms, k), stamped with the directory generation read before the search
// ran. The generation moves on every accepted record, on/off-line flip and
// local publish, and a lookup at any other generation finds its entry
// stale.
//
// The freshness contract: a remote peer's answer stands while this
// directory holds the same record version for it, because a change to a
// peer's content is a new version (paper §3). A fresh entry is served as
// it is. A stale entry is repaired: the search runs again with the
// per-peer answers the entry kept as its prior, asks only the peers whose
// record moved (or every peer, if N or an N_t moved), walks the own index,
// and is put back with its new body and answers (core.SearchAgain). So a
// remote peer's write reaches a cached answer when its new version reaches
// this directory, not before, even after this node's own publish. A
// drop is a new version too: a removal and a replica release or purge
// each announce one.
//
// Admission is by repetition: a query seen for the first time keeps only
// its body, and its answers are kept from its second sighting on, when a
// stale entry exists: a query that is not repeated after the generation
// moved never searches with a prior and keeps no answers.
//
// A body is stored marshaled: a hit is one map lookup plus one Write, with
// no risk of a handler mutating a shared result slice. Entries are
// LRU-evicted beyond cacheEntries.
type resultCache struct {
	lru *lru.Cache[string, uint64, cached]
}

// cached is one entry: the rendered body, and the answers it was merged
// from (nil until the query repeats).
type cached struct {
	body    []byte
	answers *core.Answers
}

// newResultCache returns an empty cache.
func newResultCache() *resultCache {
	return &resultCache{lru: lru.New[string, uint64, cached](cacheEntries)}
}

// searchCacheKey canonicalizes one search request: the term sequence
// (already tokenized/stemmed, so equivalent spellings collide) plus k,
// which changes truncation.
func searchCacheKey(terms []string, k int) string {
	var b strings.Builder
	for _, t := range terms {
		b.WriteString(t)
		b.WriteByte(0)
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	return b.String()
}

// get returns key's entry: fresh if it was put at generation gen, else
// stale if an entry of another generation was there. A stale entry is
// dropped and handed to its one finder to repair.
func (c *resultCache) get(gen uint64, key string) (e cached, fresh, stale bool) {
	return c.lru.Get(key, gen)
}

// put stores e under key, stamped with the generation read before the
// search ran: if a publish landed meanwhile, every later get carries a
// newer generation and finds this possibly-stale entry stale.
func (c *resultCache) put(gen uint64, key string, e cached) {
	c.lru.Put(key, gen, e, 1)
}
