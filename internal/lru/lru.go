// Package lru is the stamped, cost-bounded LRU under the query path's
// two caches (filtercache, serve's result cache).
//
// An entry carries the stamp it was computed at — a record version, a
// directory generation — and a lookup names the stamp the caller holds
// now. Any other stamp is a miss that drops the entry, so a value stored
// late (its compute raced the change) can never be returned: staleness is
// decided per lookup, not by flushing.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to stamped values under a total cost budget, evicting
// least-recently-used first. All methods are safe for concurrent use.
type Cache[K, S comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	cost   int64
	ll     *list.List // front = most recently used
	items  map[K]*list.Element
}

type entry[K, S comparable, V any] struct {
	key   K
	stamp S
	value V
	cost  int64
}

// New returns an empty cache holding at most budget total cost.
func New[K, S comparable, V any](budget int64) *Cache[K, S, V] {
	return &Cache[K, S, V]{budget: budget, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value put under key at stamp. An entry with any other
// stamp is dropped, which dropped reports (to callers counting evictions).
func (c *Cache[K, S, V]) Get(key K, stamp S) (value V, ok, dropped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.items[key]
	if el == nil {
		return value, false, false
	}
	if e := el.Value.(*entry[K, S, V]); e.stamp == stamp {
		c.ll.MoveToFront(el)
		return e.value, true, false
	}
	c.remove(el)
	return value, false, true
}

// Put stores value under key at stamp, replacing any entry for key, then
// evicts least-recently-used entries until the total cost fits the budget
// — but never the entry just put, so one value larger than the whole
// budget is still cached. It returns how many entries it removed and the
// total cost it leaves.
func (c *Cache[K, S, V]) Put(key K, stamp S, value V, cost int64) (evicted int, total int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.items[key]; el != nil {
		c.remove(el)
		evicted++
	}
	el := c.ll.PushFront(&entry[K, S, V]{key: key, stamp: stamp, value: value, cost: cost})
	c.items[key] = el
	c.cost += cost
	for back := c.ll.Back(); c.cost > c.budget && back != el; back = c.ll.Back() {
		c.remove(back)
		evicted++
	}
	return evicted, c.cost
}

// Delete drops key's entry, reporting whether there was one and the
// total cost it leaves.
func (c *Cache[K, S, V]) Delete(key K) (ok bool, total int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.remove(el)
	}
	return ok, c.cost
}

// Len returns the number of entries.
func (c *Cache[K, S, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cost returns the total cost of the entries.
func (c *Cache[K, S, V]) Cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

func (c *Cache[K, S, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, S, V])
	delete(c.items, e.key)
	c.cost -= e.cost
}
