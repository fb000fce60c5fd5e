// Package chash implements the consistent-hashing ring PlanetP's
// information brokerage service uses to partition the key space among
// brokers (Section 4): each active member chooses a unique broker ID from
// a predetermined range [0, maxID); members arrange themselves into a ring
// by ID; a key maps to the broker whose ID is the least successor of
// H(key) mod maxID on the ring.
package chash

import (
	"crypto/sha1"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// MaxID is the predetermined ID range (0 to maxID).
const MaxID = uint32(1) << 31

// Hash maps a key into the ID space.
func Hash(key string) uint32 {
	sum := sha1.Sum([]byte(key))
	return binary.BigEndian.Uint32(sum[:4]) % MaxID
}

// IDForMember derives a stable broker ID for a member name (used when
// members do not pick IDs explicitly).
func IDForMember(name string) uint32 {
	sum := sha1.Sum([]byte("broker:" + name))
	return binary.BigEndian.Uint32(sum[4:8]) % MaxID
}

// IDForPeer derives a ring ID from a numeric peer id. The id is rendered
// in decimal — the canonical formatting every layer (brokerage, replica
// placement, the simulators) must share so they compute the same ring. A
// string(rune(id)) conversion here would collapse every id ≥ 0xD800 to
// U+FFFD (all such peers landing on ONE ring point) and alias distinct
// ids mapping to the same code point; see the collision regression test.
func IDForPeer(id int32) uint32 {
	return IDForMember(strconv.Itoa(int(id)) + "#planetp")
}

// Ring is a thread-safe consistent-hashing ring mapping IDs to opaque
// member values.
type Ring[V any] struct {
	mu      sync.RWMutex
	ids     []uint32 // sorted
	members map[uint32]V
}

// NewRing returns an empty ring.
func NewRing[V any]() *Ring[V] {
	return &Ring[V]{members: make(map[uint32]V)}
}

// Join adds a member under id, returning false if the id is taken (the
// paper requires unique broker IDs; callers should rehash on collision).
func (r *Ring[V]) Join(id uint32, v V) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.members[id]; exists {
		return false
	}
	r.members[id] = v
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	r.ids = append(r.ids, 0)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	return true
}

// successorIndex returns the index of the least id >= h, wrapping.
func (r *Ring[V]) successorIndex(h uint32) (int, bool) {
	if len(r.ids) == 0 {
		return 0, false
	}
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= h })
	if i == len(r.ids) {
		i = 0 // wrap to the smallest id
	}
	return i, true
}

// Successor returns the member owning hash value h (its least successor
// on the ring).
func (r *Ring[V]) Successor(h uint32) (id uint32, v V, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.successorIndex(h)
	if !ok {
		var zero V
		return 0, zero, false
	}
	id = r.ids[i]
	return id, r.members[id], true
}

// Successors returns up to n distinct members starting at the owner of h
// (used for replication of brokered snippets).
func (r *Ring[V]) Successors(h uint32, n int) []V {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.successorIndex(h)
	if !ok {
		return nil
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	out := make([]V, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, r.members[r.ids[(i+k)%len(r.ids)]])
	}
	return out
}

// PeerRing builds the ring every layer places keys on — the brokerage,
// replica placement, the simulators — from a membership list: each peer
// joins at IDForPeer, walking forward past an id already taken. Peers that
// agree on the membership compute the identical ring.
func PeerRing[P ~int32](peers []P) *Ring[P] {
	ring := NewRing[P]()
	for _, p := range peers {
		id := IDForPeer(int32(p))
		for !ring.Join(id, p) {
			id = (id + 1) % MaxID
		}
	}
	return ring
}

// ReplicaHolders is the replica placement of key: the first n distinct
// ring successors of Hash(key), excluding the origin.
func ReplicaHolders[P comparable](ring *Ring[P], key string, origin P, n int) []P {
	if n <= 0 {
		return nil
	}
	out := make([]P, 0, n)
	for _, p := range ring.Successors(Hash(key), n+1) {
		if p == origin {
			continue
		}
		out = append(out, p)
		if len(out) == n {
			break
		}
	}
	return out
}
