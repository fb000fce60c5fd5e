package main

import (
	"runtime"
	"sort"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/text"
)

// layerTraced derives the class B (decorator) and class C (stage replay)
// metrics from the traced half of the window.
func layerTraced(v values, lr *loadResult, tr *tracer, sc scale) {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	acks, news := tr.acks, tr.newsE
	tr.mu.Unlock()

	byName := make(map[string][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	sum := func(name string) (total float64, calls float64) {
		for _, s := range byName[name] {
			total += float64(s.dur())
			calls += float64(max(s.Agg, 1))
		}
		return total, calls
	}
	p50 := func(name string) float64 {
		var d []int64
		for _, s := range byName[name] {
			d = append(d, s.dur())
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return float64(percentile(d, 50))
	}
	perCall := func(name string) float64 { return ratio(sum(name)) }
	searches := float64(len(byName["replay.search"]))
	docs := float64(len(byName["replay.publish"]) * sc.batch)

	v["serve.handler_us_p50"] = p50("serve.search") / 1e3
	v["serve.publish_handler_us_p50"] = p50("serve.publish") / 1e3
	v["serve.http_overhead_us_p50"] = httpOverheadP50(spans) / 1e3

	v["text.parse_query_ns"] = perCall("text.parse_query")
	analyze, _ := sum("text.term_freqs")
	v["text.analyze_us_per_doc"] = ratio(analyze, docs) / 1e3
	parse, _ := sum("doc.parse")
	v["doc.parse_us_per_doc"] = ratio(parse, docs) / 1e3
	v["bloom.digest_ns_per_term"] = perCall("bloom.make_digests")
	flush, flushes := sum("bloom.summary_flush")
	v["bloom.summary_flush_us_per_batch"] = ratio(flush, flushes) / 1e3
	v["filtercache.probe_ns"] = perCall("filtercache.probe")
	probe, _ := sum("filtercache.probe")
	v["filtercache.probe_us_per_query"] = ratio(probe, searches) / 1e3
	lookup, _ := sum("index.lookup")
	v["index.lookup_us_per_query"] = ratio(lookup, searches) / 1e3
	add, _ := sum("index.add_batch")
	v["index.add_us_per_doc"] = ratio(add, docs) / 1e3
	puts, _ := sum("broker.put")
	v["broker.put_us_per_doc"] = ratio(puts, docs) / 1e3

	self := selfTimes(spans)
	var rankSelf float64
	for _, s := range byName["search.ranked"] {
		rankSelf += float64(self[s.ID])
	}
	v["search.rank_self_us_per_query"] = ratio(rankSelf, searches) / 1e3

	t := lr.traced
	td := t.delta()
	batches, bodyBytes := 0.0, 0.0
	for _, s := range within(lr.samples, t) {
		if s.publish && s.ok {
			batches++
			bodyBytes += float64(s.bytes)
		}
	}
	v["store.fsync_ms_p50"] = p50("store.fsync") / 1e6
	v["store.fsyncs_per_batch"] = ratio(float64(td.fsyncs), batches)
	v["store.wal_bytes_per_doc_byte"] = ratio(float64(td.walBytes), bodyBytes)

	delays := newsDelays(acks, news, lr.nodes)
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	v["gossip.news_delay_ms_p50"] = float64(percentile(delays, 50)) / 1e6
	v["gossip.news_delay_ms_p90"] = float64(percentile(delays, 90)) / 1e6

	plainRate := median(rates(lr.samples, lr.plain, sc.window, anyOp))
	tracedRate := median(rates(lr.samples, t, sc.window, anyOp))
	v["trace.overhead_pct"] = 100 * ratio(plainRate-tracedRate, plainRate)
	v["trace.coverage"] = coverage(spans)
}

// httpOverheadP50 is the median, over traced searches (publishes when
// there are none), of client time minus handler time.
func httpOverheadP50(spans []span) float64 {
	client := make(map[int64]span)
	for _, s := range spans {
		if s.Name == "client.search" || s.Name == "client.publish" {
			client[s.Op] = s
		}
	}
	over := map[string][]int64{}
	for _, s := range spans {
		if s.Name != "serve.search" && s.Name != "serve.publish" {
			continue
		}
		if c, ok := client[s.Op]; ok {
			over[s.Name] = append(over[s.Name], c.dur()-s.dur())
		}
	}
	d := over["serve.search"]
	if len(d) == 0 {
		d = over["serve.publish"]
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(percentile(d, 50))
}

// coverage is, over the replayed ops, the time the trace explains — the
// replay's stages plus the in-situ fsync spans that fall inside the op's
// handler span on the same node — divided by the handler time.
func coverage(spans []span) float64 {
	handler := make(map[int64]span)
	var fsyncs []span
	for _, s := range spans {
		switch s.Name {
		case "serve.search", "serve.publish":
			handler[s.Op] = s
		case "store.fsync":
			fsyncs = append(fsyncs, s)
		}
	}
	var explained, total int64
	for _, s := range spans {
		if s.Name != "replay.search" && s.Name != "replay.publish" {
			continue
		}
		h, ok := handler[s.Op]
		if !ok {
			continue
		}
		total += h.dur()
		explained += s.dur()
		var inside []span
		for _, f := range fsyncs {
			if f.Node == h.Node {
				inside = append(inside, f)
			}
		}
		explained += covered(h.Start, h.End, inside)
	}
	return ratio(float64(explained), float64(total))
}

// layerProbes runs the class C measurements that need no client op: a
// burst of bench-owned RPCs at live peers, and decodes of the real
// filters in node 0's directory.
func layerProbes(v values, c *cluster, rs *replayState, queries opGen, rpcs int) error {
	dir := c.peers[0].Directory()
	var targets []directory.PeerID
	for _, id := range dir.OnlineIDs() {
		if len(c.stubs) == 0 || id != c.peers[0].ID() {
			targets = append(targets, id)
		}
	}
	terms := make([][]string, rpcs)
	for i := range terms {
		terms[i] = text.ParseQuery(queries().text)
	}
	before := rs.tpReg.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// At most rpcs RPCs, and at most a second of them: after a publish
	// workload a hot word matches thousands of documents per peer.
	var lat []int64
	for begin := time.Now(); len(lat) < rpcs && time.Since(begin) < time.Second; {
		i := len(lat)
		start := time.Now()
		if _, err := rs.tp.Query(targets[i%len(targets)], terms[i], false); err != nil {
			return err
		}
		lat = append(lat, int64(time.Since(start)))
	}
	rpcs = len(lat)
	runtime.ReadMemStats(&ms1)
	d := rs.tpReg.Snapshot().Delta(before)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	v["transport.rpc_us_p50"] = float64(percentile(lat, 50)) / 1e3
	v["transport.query_bytes_per_rpc"] = float64(d.Counters["transport_tx_bytes_query"]+d.Counters["transport_rx_bytes_query"]) / float64(rpcs)
	v["transport.allocs_per_rpc"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(rpcs)

	var payloads [][]byte
	var bytes int
	for _, id := range dir.KnownIDs() {
		if p, _, ok := dir.Payload(id); ok && len(p) > 0 {
			payloads = append(payloads, p)
			bytes += len(p)
		}
	}
	if len(payloads) == 0 {
		return nil
	}
	v["bloom.payload_bytes"] = float64(bytes) / float64(len(payloads))
	const decodes = 256
	start := time.Now()
	for i := 0; i < decodes; i++ {
		if _, err := bloom.DecodeCompact(payloads[i%len(payloads)]); err != nil {
			return err
		}
	}
	v["golomb.decode_us_per_filter"] = float64(time.Since(start)) / 1e3 / decodes
	v["directory.bytes_per_peer"] = c.dirBytesPerPeer
	return nil
}
