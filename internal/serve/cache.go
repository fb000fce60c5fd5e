package serve

import (
	"strconv"
	"strings"

	"planetp/internal/lru"
)

// resultCache memoizes fully rendered search responses keyed by
// (query terms, k), stamped with the directory mutation generation. A
// search result is a pure function of the community's filter state plus
// the contacted peers' indexes; the directory generation advances on every
// accepted record, on/off-line flip, and local publish (publishes upsert
// the self record), so any event that could change an answer also moves
// the generation, and no older entry is returned again.
//
// It stores the marshaled JSON body, not live structures: a hit is one
// map lookup plus one Write, with no risk of a handler mutating a shared
// result slice.
//
// Entries are LRU-evicted beyond cap. A nil *resultCache is a disabled
// cache: get always misses, put drops.
type resultCache struct {
	lru *lru.Cache[string, uint64, []byte]
}

// newResultCache returns a cache of at most cap responses (nil if cap <= 0).
func newResultCache(cap int) *resultCache {
	if cap <= 0 {
		return nil
	}
	return &resultCache{lru: lru.New[string, uint64, []byte](int64(cap))}
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

// get returns the cached body for key at generation gen, if fresh.
func (c *resultCache) get(gen uint64, key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	body, ok, _ := c.lru.Get(key, gen)
	return body, ok
}

// put stores body under key, stamped with the generation read before the
// search ran: if a publish landed meanwhile, every later get carries a
// newer generation and cannot return this possibly-stale response.
func (c *resultCache) put(gen uint64, key string, body []byte) {
	if c != nil {
		c.lru.Put(key, gen, body, 1)
	}
}
