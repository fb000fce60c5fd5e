package main

import (
	"sort"
	"strings"
	"time"

	"planetp/internal/metrics"
)

// metricDef declares one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen (0 for
// per-layer metrics, which are never gated).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one; README.md says what each means on each workload, how the
// bounds follow from the spreads measured over ten seeds, and why no
// latency percentile is among them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_ref_s", "1/s", "higher", 0.25},
	{"tail_ref_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.20},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer is one row per layer measurement, named <package>.<what>. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"client.search_rps", "1/s", "higher", 0},
	{"client.search_p50_us", "us", "lower", 0},
	{"client.search_p90_us", "us", "lower", 0},
	{"client.search_p99_ms", "ms", "lower", 0},
	{"client.publish_docs_per_s", "1/s", "higher", 0},
	{"client.publish_p50_us", "us", "lower", 0},
	{"client.publish_p90_us", "us", "lower", 0},
	{"client.publish_p99_ms", "ms", "lower", 0},
	{"client.fail_share", "ratio", "lower", 0},
	{"serve.handler_us_p50", "us", "lower", 0},
	{"serve.publish_handler_us_p50", "us", "lower", 0},
	{"serve.http_overhead_us_p50", "us", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.shed_total", "count", "lower", 0},
	{"text.parse_query_ns", "ns", "lower", 0},
	{"text.analyze_us_per_doc", "us", "lower", 0},
	{"doc.parse_us_per_doc", "us", "lower", 0},
	{"bloom.digest_ns_per_term", "ns", "lower", 0},
	{"bloom.summary_flush_us_per_batch", "us", "lower", 0},
	{"bloom.payload_bytes", "B", "lower", 0},
	{"golomb.decode_us_per_filter", "us", "lower", 0},
	{"filtercache.probe_ns", "ns", "lower", 0},
	{"filtercache.probe_us_per_query", "us", "lower", 0},
	{"filtercache.hit_ratio", "ratio", "higher", 0},
	{"filtercache.evictions", "count", "lower", 0},
	{"filtercache.resident_mb", "MB", "lower", 0},
	{"search.rank_self_us_per_query", "us", "lower", 0},
	{"search.peers_contacted_per_query", "count", "lower", 0},
	{"search.stopped_early_ratio", "ratio", "higher", 0},
	{"search.ipf_cache_hit_ratio", "ratio", "higher", 0},
	{"search.fetch_wait_us_per_query", "us", "lower", 0},
	{"transport.rpc_us_p50", "us", "lower", 0},
	{"transport.query_bytes_per_rpc", "B", "lower", 0},
	{"transport.allocs_per_rpc", "count", "lower", 0},
	{"transport.pool_reuse_ratio", "ratio", "higher", 0},
	{"transport.dials", "count", "lower", 0},
	{"transport.retries", "count", "lower", 0},
	{"transport.timeouts", "count", "lower", 0},
	{"transport.wire_bytes_per_search", "B", "lower", 0},
	{"transport.rpc_wait_us_per_op", "us", "lower", 0},
	{"index.lookup_us_per_query", "us", "lower", 0},
	{"index.add_us_per_doc", "us", "lower", 0},
	{"store.fsync_ms_p50", "ms", "lower", 0},
	{"store.fsyncs_per_batch", "count", "lower", 0},
	{"store.wal_bytes_per_doc_byte", "ratio", "lower", 0},
	{"store.group_commit_waiters", "count", "higher", 0},
	{"store.compactions", "count", "lower", 0},
	{"core.ingest_batch_us_p50", "us", "lower", 0},
	{"gossip.news_delay_ms_p50", "ms", "lower", 0},
	{"gossip.news_delay_ms_p90", "ms", "lower", 0},
	{"gossip.rounds_per_node_s", "1/s", "higher", 0},
	{"gossip.bytes_per_round", "B", "lower", 0},
	{"gossip.bytes_per_doc", "B", "lower", 0},
	{"gossip.rumors_sent", "count", "lower", 0},
	{"gossip.ae_requests", "count", "lower", 0},
	{"gossip.failed_sends", "count", "lower", 0},
	{"gossip.sim_converge_lan_s", "s", "lower", 0},
	{"gossip.sim_bytes_per_peer_lan", "B", "lower", 0},
	{"gossip.sim_converge_mix_s", "s", "lower", 0},
	{"broker.put_bytes_per_doc", "B", "lower", 0},
	{"broker.put_us_per_doc", "us", "lower", 0},
	{"directory.generation_bumps_per_s", "1/s", "lower", 0},
	{"directory.bytes_per_peer", "B", "lower", 0},
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.cpu_util", "ratio", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.heap_end_mb", "MB", "lower", 0},
	{"proc.ref_speed", "ratio", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
}

// values maps metric name -> value for one run.
type values map[string]float64

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies splits the samples' latencies by kind, sorted.
func latencies(samples []sample) (all, search, publish []int64) {
	for _, s := range samples {
		if !s.ok {
			continue
		}
		all = append(all, int64(s.lat))
		if s.publish {
			publish = append(publish, int64(s.lat))
		} else {
			search = append(search, int64(s.lat))
		}
	}
	for _, l := range [][]int64{all, search, publish} {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return all, search, publish
}

// tailPercentile is the gated latency percentile. The issue's p99 needs
// a thousand samples, which rank_wide (about 70 requests a second) never
// has; the 95th is the highest that still has samples beyond it in each
// of that workload's one-second windows.
const tailPercentile = 95

// rates returns the sorted per-second rates, one per window of width w,
// at which the phase's ok samples completed, each sample counting for
// weight(sample).
func rates(samples []sample, p phase, w time.Duration, weight func(sample) int) []float64 {
	var out []float64
	for _, l := range p {
		// Whole windows from the leg's start; a leg shorter than one
		// window (the smoke's) is one window of its own length.
		lw, n := w, int((l.to.at-l.from.at)/w)
		if n < 1 {
			lw, n = l.to.at-l.from.at, 1
		}
		var ends []time.Duration
		var weights []int
		for _, s := range samples {
			if s.ok && s.end >= l.from.at && s.end < l.to.at {
				ends = append(ends, s.end-l.from.at)
				weights = append(weights, weight(s))
			}
		}
		out = append(out, windowRates(windowCounts(ends, weights, lw, n), lw)...)
	}
	sort.Float64s(out)
	return out
}

// The weights rates counts by: every request, searches only, and
// published documents.
func anyOp(sample) int { return 1 }

func searchOnly(s sample) int {
	if s.publish {
		return 0
	}
	return 1
}

func docsOf(batch int) func(sample) int {
	return func(s sample) int {
		if s.publish {
			return batch
		}
		return 0
	}
}

// txBytes sums the per-kind transport_tx_bytes_* counters.
func txBytes(d metrics.Snapshot) float64 {
	var n int64
	for k, v := range d.Counters {
		if strings.HasPrefix(k, "transport_tx_bytes_") {
			n += v
		}
	}
	return float64(n)
}

// countOK returns attempted and failed-or-shed counts.
func countOK(samples []sample) (attempted, failed int64) {
	for _, s := range samples {
		attempted++
		if !s.ok {
			failed++
		}
	}
	return attempted, failed
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// linear interpolation inside the bucket that holds it.
func histQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	lo := 0.0
	for i, c := range h.Counts {
		hi := lo
		if i < len(h.Bounds) {
			hi = float64(h.Bounds[i])
		}
		if seen+float64(c) >= target && c > 0 {
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
		lo = hi
	}
	return lo
}

// p99ms is the nearest-rank p99 in milliseconds, or 0 when there are too
// few samples for a p99 to mean anything (p90 is always reported).
func p99ms(sorted []int64, sc scale) float64 {
	if len(sorted) < sc.minTail {
		return 0
	}
	return float64(percentile(sorted, 99)) / 1e6
}

// refWindows cuts the leg into whole windows of width w (one window of
// the leg's own length when it is shorter: the smoke) and returns, per
// window, the rate of ok completions and their tailPercentile-th latency
// in ms, both at reference speed: the window's own reference timings, or
// the whole leg's when the sampler did not run inside the window.
func refWindows(samples []sample, ref []refSample, l leg, w time.Duration) (rates, tails []float64, err error) {
	n := int((l.to.at - l.from.at) / w)
	if n < 1 {
		w, n = l.to.at-l.from.at, 1
	}
	legSpeed, err := refSpeed(ref, phase{l})
	if err != nil {
		return nil, nil, err
	}
	lat := make([][]int64, n)
	for _, s := range samples {
		if k := int((s.end - l.from.at) / w); s.ok && s.end >= l.from.at && k < n {
			lat[k] = append(lat[k], int64(s.lat))
		}
	}
	for k := range lat {
		from := l.from.at + time.Duration(k)*w
		speed, err := refSpeed(ref, phase{{from: reading{at: from}, to: reading{at: from + w}}})
		if err != nil {
			speed = legSpeed
		}
		sort.Slice(lat[k], func(i, j int) bool { return lat[k][i] < lat[k][j] })
		rates = append(rates, float64(len(lat[k]))/w.Seconds()/speed)
		tails = append(tails, float64(percentile(lat[k], tailPercentile))/1e6*speed)
	}
	return rates, tails, nil
}

// endToEndValues derives the user-visible metrics of a live workload
// from an untraced load. The two timings are medians over the measured
// window's sc.window-wide windows, each window at reference speed
// (refspeed.go).
func endToEndValues(setups []float64, heapMB float64, lr *loadResult, sc scale) (values, error) {
	rates, tails, err := refWindows(lr.samples, lr.ref, lr.plain[0], sc.window)
	if err != nil {
		return nil, err
	}
	all, _, _ := latencies(within(lr.samples, lr.plain))
	d := lr.plain.delta()
	return values{
		"setup_s":           median(setups),
		"ops_per_ref_s":     median(rates),
		"tail_ref_ms":       median(tails),
		"wire_bytes_per_op": ratio(txBytes(d.node)+float64(d.http), float64(len(all))),
		"heap_mb":           heapMB,
	}, nil
}

// layerCounters derives the class A metrics: deltas of the nodes' own
// counters over the untraced phase.
func layerCounters(v values, lr *loadResult, sc scale) error {
	p := lr.plain
	in := within(lr.samples, p)
	all, search, publish := latencies(in)
	attempted, failed := countOK(in)
	d := p.delta()
	c := func(name string) float64 { return float64(d.node.Counters[name]) }
	secs := p.dur().Seconds()
	searches, batches := float64(len(search)), float64(len(publish))
	docs := batches * float64(sc.batch)

	v["client.search_rps"] = median(rates(in, p, sc.window, searchOnly))
	v["client.search_p50_us"] = float64(percentile(search, 50)) / 1e3
	v["client.search_p90_us"] = float64(percentile(search, 90)) / 1e3
	v["client.search_p99_ms"] = p99ms(search, sc)
	v["client.publish_docs_per_s"] = median(rates(in, p, sc.window, docsOf(sc.batch)))
	v["client.publish_p50_us"] = float64(percentile(publish, 50)) / 1e3
	v["client.publish_p90_us"] = float64(percentile(publish, 90)) / 1e3
	v["client.publish_p99_ms"] = p99ms(publish, sc)
	v["client.fail_share"] = ratio(float64(failed), float64(attempted))

	v["serve.cache_hit_ratio"] = ratio(c("serve_cache_hits_total"), c("serve_cache_hits_total")+c("serve_cache_misses_total"))
	v["serve.shed_total"] = c("serve_shed_total")
	v["filtercache.hit_ratio"] = ratio(c("core_filter_cache_hits"), c("core_filter_cache_hits")+c("core_filter_cache_misses"))
	v["filtercache.evictions"] = c("core_filter_cache_evictions")
	v["filtercache.resident_mb"] = float64(d.node.Gauges["core_filter_cache_resident_bytes"]) / 1e6

	ranked := c("search_ranked_queries_total")
	v["search.peers_contacted_per_query"] = ratio(c("search_peers_contacted_total"), ranked)
	v["search.stopped_early_ratio"] = ratio(c("search_stopped_early_total"), ranked)
	v["search.ipf_cache_hit_ratio"] = ratio(c("search_ipf_cache_hits_total"), c("search_ipf_cache_hits_total")+c("search_ipf_cache_misses_total"))
	v["search.fetch_wait_us_per_query"] = ratio(float64(d.node.Histograms["search_fetch_latency_us"].Sum), ranked)

	v["transport.pool_reuse_ratio"] = ratio(c("transport_pool_reuse_total"), c("transport_pool_reuse_total")+c("transport_pool_misses_total"))
	v["transport.dials"] = c("transport_dials_total")
	v["transport.retries"] = c("transport_send_retries_total")
	v["transport.timeouts"] = c("transport_timeouts_total")
	v["transport.wire_bytes_per_search"] = ratio(c("transport_tx_bytes_query"), searches)
	v["transport.rpc_wait_us_per_op"] = ratio(float64(d.node.Histograms["transport_rpc_latency_us"].Sum), float64(len(all)))

	v["store.group_commit_waiters"] = c("store_group_commit_waiters")
	v["store.compactions"] = c("store_compactions_total")
	v["core.ingest_batch_us_p50"] = histQuantile(d.node.Histograms["ingest_batch_latency_us"], 0.5)

	rounds := c("gossip_rounds_total")
	v["gossip.rounds_per_node_s"] = ratio(rounds, secs*float64(lr.nodes))
	v["gossip.bytes_per_round"] = ratio(c("transport_tx_bytes_gossip"), rounds)
	v["gossip.bytes_per_doc"] = ratio(c("transport_tx_bytes_gossip"), docs)
	v["gossip.rumors_sent"] = c("gossip_rumors_sent_total")
	v["gossip.ae_requests"] = c("gossip_ae_requests_total")
	v["gossip.failed_sends"] = c("gossip_failed_sends_total")
	v["broker.put_bytes_per_doc"] = ratio(c("transport_tx_bytes_broker_put"), docs)
	v["directory.generation_bumps_per_s"] = ratio(float64(d.gens), secs*float64(lr.nodes))

	ops := float64(len(all))
	cpu := d.cpu.Seconds()
	v["proc.cpu_ms_per_op"] = ratio(cpu*1e3, ops)
	v["proc.cpu_util"] = ratio(cpu, secs*float64(lr.procs))
	v["proc.allocs_per_op"] = ratio(float64(d.mallocs), ops)
	v["proc.gc_pause_ms"] = float64(d.gcPause) / 1e6
	v["proc.heap_end_mb"] = lr.heapMB
	speed, err := refSpeed(lr.ref, p)
	v["proc.ref_speed"] = speed
	return err
}
