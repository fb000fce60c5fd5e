package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat_us"]
	want := []int64{2, 2, 1, 1} // <=10: {5,10}; <=100: {11,100}; <=1000: {500}; +Inf: {5000}
	if len(s.Counts) != len(want) {
		t.Fatalf("counts = %v", s.Counts)
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], want[i], s.Counts)
		}
	}
	if s.Count != 6 || s.Sum != 5+10+11+100+500+5000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
}

// Every instrument and the registry itself must be safe as nil — the
// repo-wide convention that lets instrumented code run unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", []int64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", []int64{50})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestSnapshotJSONAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total").Add(10)
	r.Gauge("online").Set(3)
	r.Histogram("lat", []int64{1, 2}).Observe(1)
	before := r.Snapshot()

	r.Counter("msgs_total").Add(5)
	r.Histogram("lat", nil).Observe(2)
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Get("msgs_total") != 5 {
		t.Fatalf("delta counter = %d, want 5", d.Get("msgs_total"))
	}
	if d.Histograms["lat"].Count != 1 {
		t.Fatalf("delta histogram count = %d, want 1", d.Histograms["lat"].Count)
	}
	if d.Gauges["online"] != 3 {
		t.Fatalf("delta gauge = %d, want 3 (instantaneous)", d.Gauges["online"])
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Get("msgs_total") != 15 {
		t.Fatalf("round-tripped counter = %d, want 15", round.Get("msgs_total"))
	}
}

func TestSnapshotNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Counter("a")
	names := r.Snapshot().Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// The acceptance bar: a counter increment must cost < 10 ns.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// The no-op path must be at least as cheap.
func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_lat_us", []int64{100, 500, 1000, 5000, 10000, 50000, 100000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xFFFF))
	}
}

// parsePrometheus reads text format 0.0.4 back: each sample's value by its
// name (labels included, as written), and each instrument's declared type.
func parsePrometheus(t *testing.T, text string) (samples map[string]int64, types map[string]string) {
	t.Helper()
	samples, types = map[string]int64{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if i < 0 || err != nil {
			t.Fatalf("unparsable sample line %q", line)
		}
		samples[line[:i]] = v
	}
	return samples, types
}

// TestWritePrometheusRoundTrips: the text rendering parses back to exactly
// the snapshot: every counter and gauge as it is, every histogram as
// cumulative buckets ending in +Inf, with _sum and _count.
func TestWritePrometheusRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(7)
	r.Counter("b_total")
	r.Gauge("depth").Set(-3)
	h := r.Histogram("lat_us", []int64{10, 100})
	for _, v := range []int64{5, 50, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, types := parsePrometheus(t, b.String())
	want := map[string]int64{
		"a_total": 7, "b_total": 0, "depth": -3,
		`lat_us_bucket{le="10"}`: 1, `lat_us_bucket{le="100"}`: 3, `lat_us_bucket{le="+Inf"}`: 4,
		"lat_us_sum": 605, "lat_us_count": 4,
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("parsed %v, want %v", samples, want)
	}
	wantTypes := map[string]string{"a_total": "counter", "b_total": "counter", "depth": "gauge", "lat_us": "histogram"}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Fatalf("types %v, want %v", types, wantTypes)
	}
}
