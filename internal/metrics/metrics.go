// Package metrics is PlanetP's zero-dependency observability substrate:
// atomic counters, gauges, and fixed-bucket histograms registered by name
// in a Registry, with snapshot/delta export to JSON.
//
// The design has two load-bearing properties:
//
//  1. Hot-path updates are a single atomic add — no locks, no maps, no
//     allocation. Instrumented code resolves its instruments once (at
//     construction) and holds the pointers.
//
//  2. A nil *Registry is a fully working no-op: Registry methods on a nil
//     receiver return nil instruments, and every instrument method on a
//     nil receiver does nothing. Code can therefore be instrumented
//     unconditionally; callers that do not care about metrics pass nil
//     and pay one predictable branch per update.
//
// Metric names are flat strings by convention ("layer_quantity_unit",
// e.g. "gossip_rounds_total", "transport_rpc_latency_us"); there are no
// labels — variants get their own name, which keeps both the hot path and
// the export trivially simple.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the value to stay monotone; this is not
// enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets defined by inclusive
// upper bounds, plus an implicit +Inf overflow bucket. Units are the
// caller's choice and should be part of the metric name ("_us", "_ms").
// A nil *Histogram is a no-op.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry holds named instruments. Lookups take a lock and may allocate;
// resolve instruments once and keep the pointers. All methods are safe
// for concurrent use and safe on a nil receiver (returning nil
// instruments).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (bounds must be sorted
// ascending; they are ignored if the histogram already exists). Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the exported state of one histogram. Counts[i] is
// the number of observations <= Bounds[i]; the final extra entry is the
// +Inf overflow bucket.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
}

// Snapshot is a point-in-time copy of a registry's instruments,
// marshalable to JSON. Maps iterate in sorted key order when marshaled by
// encoding/json, so output is deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current values. A nil registry yields an empty
// (but usable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.n.Load(),
			Sum:    h.sum.Load(),
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// Get returns the snapshot's counter value for name (0 if absent).
func (s Snapshot) Get(name string) int64 { return s.Counters[name] }

// Delta returns s minus prev, instrument by instrument: the activity
// between two snapshots. Instruments absent from prev pass through
// unchanged.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	// Gauges are instantaneous: the delta keeps the current value.
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok || len(p.Counts) != len(h.Counts) {
			out.Histograms[name] = h
			continue
		}
		d := HistogramSnapshot{
			Count:  h.Count - p.Count,
			Sum:    h.Sum - p.Sum,
			Bounds: h.Bounds,
			Counts: make([]int64, len(h.Counts)),
		}
		for i := range h.Counts {
			d.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		out.Histograms[name] = d
	}
	return out
}

// WriteJSON writes the registry's snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format 0.0.4, instruments sorted by name. Counters and gauges appear as
// they are; a histogram appears as its cumulative buckets, name_bucket with
// an le label (+Inf last), then name_sum and name_count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprint(h.Bounds[i])
			}
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
		// The buckets were loaded one by one; the count is their total so
		// the +Inf bucket and _count agree.
		fmt.Fprintf(bw, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, cum)
	}
	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Names returns the sorted counter names in the snapshot (for summary
// tables).
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
