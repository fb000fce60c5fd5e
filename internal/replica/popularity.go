package replica

import (
	"math"
	"sort"
	"time"
)

// Popularity tracks per-document fetch popularity as exponentially
// decayed hit counters (the Jacobs/Harwood popularity signal): every
// served fetch adds 1, and the accumulated mass halves once per
// half-life. A document nobody asks for decays toward zero and falls out
// of the hot set; a document served steadily holds a score near its
// hit rate × half-life.
//
// Popularity is NOT thread-safe; the owning Manager serializes access.
type Popularity struct {
	counters map[string]*popCounter
}

// halfLife is the popularity decay half-life.
const halfLife = 10 * time.Minute

type popCounter struct {
	mass float64
	last time.Duration
}

// NewPopularity returns an empty tracker.
func NewPopularity() *Popularity {
	return &Popularity{counters: make(map[string]*popCounter)}
}

// decayTo folds the elapsed decay into the counter.
func (p *Popularity) decayTo(c *popCounter, now time.Duration) {
	if now <= c.last {
		return
	}
	dt := float64(now-c.last) / float64(halfLife)
	c.mass *= math.Exp2(-dt)
	c.last = now
}

// Hit records one served fetch of key at now.
func (p *Popularity) Hit(key string, now time.Duration) {
	c := p.counters[key]
	if c == nil {
		c = &popCounter{last: now}
		p.counters[key] = c
	}
	p.decayTo(c, now)
	c.mass++
}

// Seed raises key's score to at least mass (adopting a replica seeds the
// local counter with the advertised popularity so a freshly hoarded copy
// is not garbage-collected before it has served anyone).
func (p *Popularity) Seed(key string, mass float64, now time.Duration) {
	c := p.counters[key]
	if c == nil {
		c = &popCounter{last: now}
		p.counters[key] = c
	}
	p.decayTo(c, now)
	if c.mass < mass {
		c.mass = mass
	}
}

// Score returns key's decayed popularity at now (0 if never hit).
func (p *Popularity) Score(key string, now time.Duration) float64 {
	c := p.counters[key]
	if c == nil {
		return 0
	}
	p.decayTo(c, now)
	return c.mass
}

// Above returns the keys whose decayed score at now is at least min,
// sorted by descending score (ties broken by key for determinism).
func (p *Popularity) Above(min float64, now time.Duration) []string {
	type ks struct {
		k string
		s float64
	}
	var hot []ks
	for k, c := range p.counters {
		p.decayTo(c, now)
		if c.mass >= min {
			hot = append(hot, ks{k, c.mass})
		} else if c.mass < 1e-6 {
			// Fully decayed counters are garbage; drop them here so the
			// map does not grow with every document ever fetched.
			delete(p.counters, k)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].s != hot[j].s {
			return hot[i].s > hot[j].s
		}
		return hot[i].k < hot[j].k
	})
	out := make([]string, len(hot))
	for i, h := range hot {
		out[i] = h.k
	}
	return out
}

// Len returns the number of tracked counters.
func (p *Popularity) Len() int { return len(p.counters) }
