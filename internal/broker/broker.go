// Package broker implements PlanetP's information brokerage service
// (Section 4): an optional, best-effort publish/locate layer used to make
// brand-new content findable before Bloom-filter gossip catches up.
// Information is published as an XML snippet with a set of associated keys
// and a discard time; the network of brokers partitions the key space with
// consistent hashing; snippets are discarded when their time expires. The
// service makes no durability guarantee — if a broker leaves abruptly, its
// snippets are lost (the paper's explicit design point).
//
// This package is one member's store; core routes keys to members over
// the ring chash.PeerRing builds from the directory, and keeps the
// persistent-query watches its peers register.
package broker

import (
	"sync"
	"time"

	"planetp/internal/metrics"
)

// Snippet is a published unit: an XML fragment advertised under keys.
type Snippet struct {
	// ID identifies the snippet (typically the content hash of XML).
	ID string
	// Owner is the publishing peer (so a consumer can fetch the full
	// document from its holder).
	Owner int32
	// XML is the published fragment.
	XML string
	// Keys are the terms the snippet is advertised under.
	Keys []string
}

// HasKey reports whether the snippet was advertised under key.
func (s Snippet) HasKey(key string) bool {
	for _, k := range s.Keys {
		if k == key {
			return true
		}
	}
	return false
}

// HasAllKeys reports whether the snippet covers every key (conjunctive
// query semantics).
func (s Snippet) HasAllKeys(keys []string) bool {
	for _, k := range keys {
		if !s.HasKey(k) {
			return false
		}
	}
	return true
}

// entry is a stored snippet with its expiry.
type entry struct {
	sn      Snippet
	expires time.Duration
}

// Broker is one member's brokerage store: the snippets whose keys hash
// into the arcs this member owns. Thread-safe.
type Broker struct {
	mu    sync.Mutex
	clock func() time.Duration
	byKey map[string][]entry

	m brokerMetrics
}

// brokerMetrics holds the broker's registry instruments (all nil — a
// no-op — until SetMetrics is called).
type brokerMetrics struct {
	puts     *metrics.Counter
	gets     *metrics.Counter
	returned *metrics.Counter
	expired  *metrics.Counter
}

// NewBroker returns a broker using clock for expiry decisions (virtual
// time in simulation, monotonic elapsed time live).
func NewBroker(clock func() time.Duration) *Broker {
	return &Broker{clock: clock, byKey: make(map[string][]entry)}
}

// SetMetrics points the broker's counters (broker_* names) at reg. Call
// before the broker sees traffic; nil leaves instrumentation off.
func (b *Broker) SetMetrics(reg *metrics.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m = brokerMetrics{
		puts:     reg.Counter("broker_puts_total"),
		gets:     reg.Counter("broker_gets_total"),
		returned: reg.Counter("broker_snippets_returned_total"),
		expired:  reg.Counter("broker_expired_total"),
	}
}

// Put stores sn under key until the discard time elapses.
func (b *Broker) Put(key string, sn Snippet, discard time.Duration) {
	now := b.clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.byKey[key] = append(b.byKey[key], entry{sn: sn, expires: now + discard})
	b.m.puts.Inc()
}

// Get returns the live snippets stored under key.
func (b *Broker) Get(key string) []Snippet {
	now := b.clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.gets.Inc()
	entries := b.byKey[key]
	out := make([]Snippet, 0, len(entries))
	live := entries[:0]
	for _, e := range entries {
		if e.expires > now {
			out = append(out, e.sn)
			live = append(live, e)
		} else {
			b.m.expired.Inc()
		}
	}
	if len(live) == 0 {
		delete(b.byKey, key)
	} else {
		b.byKey[key] = live
	}
	b.m.returned.Add(int64(len(out)))
	return out
}

// Sweep drops every expired entry, returning how many were discarded.
func (b *Broker) Sweep() int {
	now := b.clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for key, entries := range b.byKey {
		live := entries[:0]
		for _, e := range entries {
			if e.expires > now {
				live = append(live, e)
			} else {
				n++
			}
		}
		if len(live) == 0 {
			delete(b.byKey, key)
		} else {
			b.byKey[key] = live
		}
	}
	b.m.expired.Add(int64(n))
	return n
}

// Stored is one exported broker entry.
type Stored struct {
	Key     string
	Sn      Snippet
	Expires time.Duration
}

// Export drains the broker's live entries, returning them with their
// absolute expiry. The broker is left empty.
func (b *Broker) Export() []Stored {
	now := b.clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Stored
	for key, entries := range b.byKey {
		for _, e := range entries {
			if e.expires > now {
				out = append(out, Stored{Key: key, Sn: e.sn, Expires: e.expires})
			}
		}
		delete(b.byKey, key)
	}
	return out
}

// Len returns the number of live (unswept) entries.
func (b *Broker) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, entries := range b.byKey {
		n += len(entries)
	}
	return n
}
