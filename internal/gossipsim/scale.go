package gossipsim

import (
	"fmt"
	"runtime"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/filtercache"
)

// ScaleSpec parameterizes the directory-scale experiment: how much memory
// does one replica of the community directory cost at n peers, and what
// does the compressed-resident design (columnar directory + compact
// probing + budgeted hot LRU) save over keeping every peer's Bloom filter
// decompressed, the pre-diet dirView behavior.
type ScaleSpec struct {
	// N is the community size (directory capacity and member count).
	N int
	// TermsPerFilter is the per-peer key count inserted into each Bloom
	// filter (default 1000 — the paper's update unit).
	TermsPerFilter int
	// CacheBudget bounds the probe cache (0 = filtercache default).
	CacheBudget int64
	// QueryTerms is how many digests each fan-out probe ANDs together
	// (default 3, a typical multi-term query).
	QueryTerms int
	// ConvergeMax gates the in-simulator convergence probe: it runs only
	// when N <= ConvergeMax (the full-community simulation is O(n²); at
	// 100k only the single-replica memory measurement is feasible).
	// 0 means never.
	ConvergeMax int
	// Seed drives the convergence simulation.
	Seed int64
}

// WithDefaults fills zero fields.
func (sp ScaleSpec) WithDefaults() ScaleSpec {
	if sp.TermsPerFilter <= 0 {
		sp.TermsPerFilter = 1000
	}
	if sp.QueryTerms <= 0 {
		sp.QueryTerms = 3
	}
	return sp
}

// ScalePoint is one row of BENCH_directory.json.
type ScalePoint struct {
	N              int `json:"n"`
	TermsPerFilter int `json:"terms_per_filter"`
	// PayloadBytes is the compressed wire size of one peer's filter.
	PayloadBytes int `json:"payload_bytes"`
	// DirectoryBytes is the measured heap cost of one fully populated
	// replica (columns + interned addresses + compressed payloads).
	DirectoryBytes int64   `json:"directory_bytes"`
	BytesPerPeer   float64 `json:"bytes_per_peer"`
	// BaselineBytesPerPeer is the per-peer heap cost of the decompressed
	// baseline: every filter materialized as a full bitset, the pre-diet
	// dirView steady state (measured on a sample, it is constant per
	// peer).
	BaselineBytesPerPeer float64 `json:"baseline_bytes_per_peer"`
	// Ratio = BytesPerPeer / BaselineBytesPerPeer (directory only vs
	// resident filters; the acceptance bar is <= ~1/5).
	Ratio float64 `json:"ratio"`
	// ColdProbeNS / WarmProbeNS are per-peer fan-out probe latencies: the
	// node's sweep (one directory read, one filtercache Sweep) of every
	// peer with QueryTerms digests, first pass (decode misses) vs second
	// pass (cache-resident).
	ColdProbeNS float64 `json:"cold_probe_ns"`
	WarmProbeNS float64 `json:"warm_probe_ns"`
	// CacheResidentBytes is the probe cache's post-sweep residency
	// (bounded by the budget regardless of N).
	CacheResidentBytes int64 `json:"cache_resident_bytes"`
	// HeapAllocBytes is runtime.MemStats.HeapAlloc at steady state
	// (directory + cache resident, after the warm sweep and a GC).
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// ConvergeS is the simulated time for one 1000-key update to reach
	// all N peers (LAN scenario); -1 when the probe was skipped.
	ConvergeS float64 `json:"converge_s"`
	// BuildS is the wall time to populate the replica.
	BuildS float64 `json:"build_s"`
}

// heapAlloc returns post-GC live heap bytes. Two collections settle
// finalizer-reachable garbage so deltas measure retained state, not
// allocation traffic.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// scalePool builds a pool of distinct compressed filters; peers cycle
// through the pool but every peer gets a private copy of the bytes, so
// per-peer heap cost is honest while filter construction stays O(pool).
func scalePool(terms int) [][]byte {
	const poolSize = 64
	pool := make([][]byte, poolSize)
	for i := range pool {
		f := bloom.Default()
		for t := 0; t < terms; t++ {
			f.Insert(fmt.Sprintf("w%03d-%05d", i, t))
		}
		pool[i] = f.Compress()
	}
	return pool
}

// DirectoryScale measures one replica of an n-peer community directory:
// build it record by record with realistic compressed payloads and unique
// addresses, weigh it against the decompressed-filter baseline, then
// sweep a multi-term query fan-out through the probe cache cold and warm.
// For N <= ConvergeMax it also runs the Figure-2 propagation probe at the
// same size so the memory diet is tied to a live convergence number.
func DirectoryScale(sc Scenario, spec ScaleSpec) ScalePoint {
	spec = spec.WithDefaults()
	n := spec.N
	pool := scalePool(spec.TermsPerFilter)
	pt := ScalePoint{N: n, TermsPerFilter: spec.TermsPerFilter, PayloadBytes: len(pool[0]), ConvergeS: -1}

	// --- replica build + weigh ---
	buildStart := time.Now()
	before := heapAlloc()
	d := directory.New(0, n)
	for id := 1; id < n; id++ {
		src := pool[id%len(pool)]
		pay := append([]byte(nil), src...)
		d.Upsert(directory.Record{
			ID:  directory.PeerID(id),
			Ver: directory.Version{Epoch: 1, Seq: 1},
			Addr: fmt.Sprintf("10.%d.%d.%d:4000",
				(id>>16)&255, (id>>8)&255, id&255),
			PayloadSize: int32(len(pay)),
			DiffSize:    Diff1000Keys,
			Payload:     pay,
		})
	}
	pt.BuildS = time.Since(buildStart).Seconds()
	after := heapAlloc()
	if after > before {
		pt.DirectoryBytes = int64(after - before)
	}
	pt.BytesPerPeer = float64(pt.DirectoryBytes) / float64(n-1)

	// --- decompressed baseline (sampled: constant per peer) ---
	sample := min(n-1, 1000)
	baseBefore := heapAlloc()
	filters := make([]*bloom.Filter, 0, sample)
	for id := 1; id <= sample; id++ {
		pay, _, ok := d.Payload(directory.PeerID(id))
		if !ok {
			continue
		}
		f, err := bloom.Decompress(pay)
		if err == nil {
			filters = append(filters, f)
		}
	}
	baseAfter := heapAlloc()
	// KeepAlive: without it only len(filters) is live below and the GC
	// inside heapAlloc is free to collect the filters before the "after"
	// reading.
	runtime.KeepAlive(filters)
	if baseAfter > baseBefore && len(filters) > 0 {
		pt.BaselineBytesPerPeer = float64(baseAfter-baseBefore) / float64(len(filters))
	}
	filters = nil
	if pt.BaselineBytesPerPeer > 0 {
		pt.Ratio = pt.BytesPerPeer / pt.BaselineBytesPerPeer
	}

	// --- query fan-out, cold then warm ---
	cache := filtercache.New(d, filtercache.Config{Budget: spec.CacheBudget})
	digests := make([]bloom.Digest, spec.QueryTerms)
	for t := range digests {
		digests[t] = bloom.MakeDigest(fmt.Sprintf("w000-%05d", t))
	}
	// The node's sweep: one directory read, then every peer through the
	// cache at once.
	sweep := func() time.Duration {
		start := time.Now()
		_, ids, vers, payloads := d.OnlinePayloads()
		cache.Sweep(ids, vers, payloads, digests, make([]bool, len(ids)*len(digests)))
		return time.Since(start)
	}
	pt.ColdProbeNS = float64(sweep().Nanoseconds()) / float64(n-1)
	pt.WarmProbeNS = float64(sweep().Nanoseconds()) / float64(n-1)
	pt.CacheResidentBytes = cache.ResidentBytes()
	pt.HeapAllocBytes = heapAlloc()
	runtime.KeepAlive(d)
	runtime.KeepAlive(cache)

	// --- convergence probe (full simulation, gated by size) ---
	if spec.ConvergeMax > 0 && n <= spec.ConvergeMax {
		pt.ConvergeS = Propagation(sc, n, spec.Seed).Time.Seconds()
	}
	return pt
}
