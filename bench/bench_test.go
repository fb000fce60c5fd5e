package main

import (
	"context"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"planetp/internal/directory"
)

func TestOpsHashFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		if w.gen == nil {
			continue
		}
		a := opsSHA256(w.gen(1, smokeScale, 0), 300)
		b := opsSHA256(w.gen(1, smokeScale, 0), 300)
		c := opsSHA256(w.gen(2, smokeScale, 0), 300)
		if a != b {
			t.Errorf("%s: seed 1 hashed %s then %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hashed %s", w.name, a)
		}
	}
	if a, b := simSeeds(1, 4), simSeeds(2, 4); a[0] != 1 || a[1] == b[1] {
		t.Errorf("gossip_sim sub-seeds %v and %v: pair 0 must be the seed, the rest must differ", a, b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(ten, tc.p); got != tc.want {
			t.Errorf("p%v of 10..100 = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64(nil), 99); got != 0 {
		t.Errorf("p99 of nothing = %d, want 0", got)
	}
}

func TestWindowedMedian(t *testing.T) {
	ms := time.Millisecond
	// Three 100 ms windows holding 1, 3 and 2 completions; one completion
	// before the start and one after the end are dropped.
	ends := []time.Duration{-5 * ms, 10 * ms, 110 * ms, 120 * ms, 199 * ms, 200 * ms, 299 * ms, 300 * ms}
	weights := []int{1, 1, 1, 1, 1, 1, 1, 1}
	counts := windowCounts(ends, weights, 100*ms, 3)
	if want := []float64{1, 3, 2}; counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] {
		t.Fatalf("window counts %v, want %v", counts, want)
	}
	if got := median(windowRates(counts, 100*ms)); got != 20 {
		t.Errorf("windowed rate %v/s, want 20 (median window holds 2 in 0.1 s)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestReferenceSpeed(t *testing.T) {
	ms := time.Millisecond
	at := func(d time.Duration, slow float64) refSample {
		s := refSample{at: d}
		for k, n := range refNominal {
			s.d[k] = time.Duration(float64(n) * slow)
		}
		return s
	}
	// The box runs at half speed during the first window and at nominal
	// speed during the second; a sample outside the leg is not read.
	ref := []refSample{at(50*ms, 9), at(150*ms, 2), at(160*ms, 2), at(250*ms, 1), at(350*ms, 9)}
	l := leg{from: reading{at: 100 * ms}, to: reading{at: 300 * ms}}
	if got, err := refSpeed(ref, phase{l}); err != nil || math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed over the leg = %v, %v; want 0.5 (the median sample is a slow one)", got, err)
	}
	if _, err := refSpeed(ref[:1], phase{l}); err == nil {
		t.Error("a leg without a reference sample has a speed")
	}
	// Window one: 3 requests of 10, 20, 30 ms at half speed; window two:
	// 2 requests of 10 and 40 ms at full speed; the failed one is not counted.
	samples := []sample{
		{end: 110 * ms, lat: 10 * ms, ok: true}, {end: 120 * ms, lat: 30 * ms, ok: true}, {end: 199 * ms, lat: 20 * ms, ok: true},
		{end: 200 * ms, lat: 40 * ms, ok: true}, {end: 299 * ms, lat: 10 * ms, ok: true}, {end: 250 * ms, lat: 90 * ms},
		{end: 300 * ms, lat: 90 * ms, ok: true},
	}
	rates, tails, err := refWindows(samples, ref, l, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	// 30/s at half speed is 60/s at reference speed; 30 ms is 15 ms.
	if want := []float64{60, 20}; len(rates) != 2 || math.Abs(rates[0]-want[0]) > 1e-9 || math.Abs(rates[1]-want[1]) > 1e-9 {
		t.Errorf("window rates %v, want %v", rates, want)
	}
	if want := []float64{15, 40}; len(tails) != 2 || math.Abs(tails[0]-want[0]) > 1e-9 || math.Abs(tails[1]-want[1]) > 1e-9 {
		t.Errorf("window tails %v ms, want %v", tails, want)
	}
}

func TestCheckRepeats(t *testing.T) {
	run := func(w, sha string, ops float64) *result {
		return &result{Workload: w, OpsSHA256: sha, Metrics: []metric{{Name: "setup_s", Value: ops / 7}, {Name: "ops_per_ref_s", Value: ops}}}
	}
	if err := checkRepeats([]*result{run("search_hot", "a", 1), run("gossip_sim", "b", 2), run("search_hot", "a", 3), run("gossip_sim", "b", 2)}); err != nil {
		t.Errorf("equal loads, equal simulations: %v", err)
	}
	if err := checkRepeats([]*result{run("search_hot", "a", 1), run("search_hot", "c", 1)}); err == nil {
		t.Error("a second run that generated another load passed")
	}
	if err := checkRepeats([]*result{run("gossip_sim", "b", 2), run("gossip_sim", "b", 2.5)}); err == nil {
		t.Error("a simulation that read differently on the same seed passed")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10 scaled], n=4) == [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75].
	if got, want := quartileSpread([]float64{3, 1, 2, 4}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of four = %v, want %v", got, want)
	}
	// Two values: the range over the median, not extrapolated quartiles.
	if got, want := quartileSpread([]float64{12, 10}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},               // overlaps a by 10
		{Name: "late", ID: 4, Parent: 1, Start: 90, End: 130},           // clipped to the parent
		{Name: "probes", ID: 5, Parent: 1, Start: 0, End: 7, Agg: 1000}, // additive, wherever it sits
		{Name: "leaf", ID: 6, Parent: 2, Start: 12, End: 20},
	}
	self := selfTimes(spans)
	// root: 100 - union(10..60, 90..100) - 7 = 100 - 60 - 7.
	for id, want := range map[int64]int64{1: 33, 2: 22, 3: 30, 4: 40, 6: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// The root's self time plus everything below it, counted once, is its
	// duration: that is what trace.coverage relies on.
	if got := coverage([]span{
		{Name: "serve.search", ID: 10, Op: 9, Parent: 9, Start: 0, End: 200},
		{Name: "replay.search", ID: 11, Op: 9, Parent: 9, Start: 300, End: 450},
	}); got != 0.75 {
		t.Errorf("coverage = %v, want 0.75", got)
	}
}

func TestNewsDelays(t *testing.T) {
	v := func(seq uint32) directory.Version { return directory.Version{Epoch: 1, Seq: seq} }
	acks := []ackEvent{{at: 100, node: 0, ver: v(5)}}
	news := []newsEvent{
		{at: 90, node: 1, from: 0, ver: v(4)},  // older version: not this publish
		{at: 150, node: 1, from: 0, ver: v(6)}, // a later version covers it
		{at: 80, node: 2, from: 0, ver: v(5)},  // beat the reply: counts as 0
		{at: 500, node: 1, from: 3, ver: v(9)}, // another origin
	}
	got := newsDelays(acks, news, 4) // node 3 never heard: left out
	if len(got) != 2 || got[0] != 50 || got[1] != 0 {
		t.Errorf("news delays %v, want [50 0]", got)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if strings.TrimSpace(string(b)) != benchmarkJSON() {
		t.Errorf("BENCHMARK.json differs from the tables in this package; regenerate it with `bash bench/run.sh -spec > BENCHMARK.json`")
	}
}

// TestSmoke runs every workload, untraced and traced, on a tiny corpus
// and checks that each emits exactly the declared metric names, and that
// wherever traced publishes ran their stage replay ran too.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, trace := range []bool{false, true} {
		o := options{sc: smokeScale, measure: smokeScale.window, trace: trace, dataDir: t.TempDir()}
		want := endToEnd
		if trace {
			want = perLayer
		}
		for _, w := range workloads {
			res, err := runWorkload(context.Background(), w, 1, o)
			if err != nil {
				t.Fatalf("trace=%v: %v", trace, err)
			}
			got := values{}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for i, m := range res.Metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit {
					t.Errorf("%s trace=%v: metric %d is %s [%s], want %s [%s]", w.name, trace, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, m.Value)
				}
				got[m.Name] = m.Value
			}
			if got["store.fsyncs_per_batch"] > 0 { // publishes ran while tracing was on
				for _, name := range []string{"text.analyze_us_per_doc", "index.add_us_per_doc", "bloom.summary_flush_us_per_batch", "broker.put_us_per_doc"} {
					if !(got[name] > 0) {
						t.Errorf("%s: traced publishes ran but %s = %v", w.name, name, got[name])
					}
				}
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}
