// Command bench is the repository's one benchmark: six named workloads
// against an in-process cluster wired as cmd/planetp-node wires a node,
// with HTTP and gossip crossing real loopback TCP. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic mix and the cluster it runs against.
type workload struct {
	name string
	why  string
	// build boots the cluster (nil for gossip_sim, which has none).
	build func(root string, seed int64, sc scale, tr *tracer) (*cluster, error)
	// gen is a client's request stream; queries is a search-only stream
	// the traced run's RPC probe draws terms from.
	gen, queries func(seed int64, sc scale, client int) opGen
	markers      bool // run the marker gate after set-up
	durable      bool // run the restart gate after the load
}

var workloads = []workload{
	{name: "search_fanout", build: buildLive, gen: fanoutGen, queries: fanoutGen, markers: true,
		why: "distinct 2-word queries miss every cache and contact ~3 of 4 peers: transport, remote index lookups and search's sequential fan-out do the work"},
	{name: "search_hot", build: buildLive, gen: hotGen, queries: hotGen, markers: true,
		why: "Zipf-repeated queries on a quiet directory: serve's result cache answers ~95%, so only serve, text and HTTP remain; transport and ranking are bypassed"},
	{name: "publish_durable", build: buildLive, gen: publishGen, queries: hotGen, markers: true, durable: true,
		why: "every op publishes 16 fresh docs: text analysis, index insert, bloom/golomb flush, store WAL fsync, broker puts and gossip do the work; no search runs"},
	{name: "mixed_rw", build: buildLive, gen: mixedGen, queries: hotGen, markers: true,
		why: "search_hot's queries with 5% publishes: each publish moves every directory generation and flushes the result, IPF and filter caches beside the reads"},
	{name: "rank_wide", build: buildRankWide, gen: rankWideGen, queries: rankWideGen,
		why: "one node ranking 1023 virtual peers with real Bloom filters, cheap stub fan-out: search's IPF/rank sweeps and filtercache/bloom probes dominate"},
	{name: "gossip_sim",
		why: "the paper's Fig. 2 propagation (LAN and MIX, n=1000) on simnet with the live node's gossip code, as exact simulated counts"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	OpsSHA256 string   `json:"ops_sha256"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

// set fills the result's metrics in declaration order; a metric the
// workload does not produce reads 0.
func (r *result) set(defs []metricDef, v values) {
	for _, d := range defs {
		r.Metrics = append(r.Metrics, metric{Name: d.Name, Value: v[d.Name], Unit: d.Unit})
	}
}

// print writes the human lines and then the contract's one-line JSON
// object.
func (r *result) print() {
	fmt.Printf("%s ops_sha256 %s\n", r.Workload, r.OpsSHA256)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]mv, len(r.Metrics))
	for _, x := range r.Metrics {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, x.Name, x.Value, x.Unit)
		m[x.Name] = mv{x.Value, x.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{true, r.Attempted, r.Failed, m})
	fmt.Println(string(line))
}

// options are the command-line settings shared by every run.
type options struct {
	sc      scale
	measure time.Duration // measured window of the live workloads
	trace   bool
	dataDir string // parent of every run's data directory; trace files go here
}

// runWorkload runs one workload once, isolated from the next: it waits
// for the goroutine count to return to its starting value and returns
// freed memory to the OS before handing back.
func runWorkload(ctx context.Context, w workload, seed int64, o options) (*result, error) {
	baseline := runtime.NumGoroutine()
	var res *result
	var err error
	if w.build == nil {
		res, err = runSim(ctx, seed, o.sc, o.trace)
	} else {
		res, err = runLive(ctx, w, seed, o)
	}
	if serr := settle(baseline); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// settle waits up to 5 s for goroutines started by a workload to end,
// then collects and releases memory; a leak fails with a goroutine dump.
func settle(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			var b strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
			return fmt.Errorf("%d goroutines still running, %d before the workload:\n%s", runtime.NumGoroutine(), baseline, b.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// runLive runs one live workload: timed set-ups, the gates, the closed
// loop, and the metric derivation. Everything it writes lies under a
// directory of its own making inside o.dataDir, removed on return; a
// cancelled ctx makes it return early, so that holds for a killed run too.
func runLive(ctx context.Context, w workload, seed int64, o options) (res *result, err error) {
	sc := o.sc
	if err := checkVocabulary(sc); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.dataDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var tr *tracer
	setups := sc.setups
	if o.trace {
		tr, setups = newTracer(), 1
	}
	var c *cluster
	var setupS []float64
	for i := 0; i < setups; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if c, err = w.build(filepath.Join(root, fmt.Sprintf("s%d", i)), seed, sc, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		if serr := c.stop(); err == nil && serr != nil {
			res, err = nil, serr
		}
	}()
	// heap_mb is read here, on the freshly set-up cluster: after the load
	// it would follow how many documents the load managed to publish.
	var heapMB float64
	if !o.trace {
		heapMB = float64(heapAfterGC().HeapAlloc) / 1e6
	}
	if w.markers {
		if err := checkMarkers(c, seed, sc); err != nil {
			return nil, err
		}
	}
	var rs *replayState
	if tr != nil {
		if rs, err = newReplayState(c, tr); err != nil {
			return nil, err
		}
		defer rs.close()
	}

	lr, err := runLoad(ctx, c, func(client int) opGen { return w.gen(seed, sc, client) }, sc, o.measure, tr, rs)
	if err != nil {
		return nil, err
	}
	measured := within(lr.samples, lr.plain)
	measured = append(measured, within(lr.samples, lr.traced)...)
	res = &result{Workload: w.name, Seed: seed, Trace: o.trace, OpsSHA256: opsSHA256(w.gen(seed, sc, 0), sc.hashOps)}
	res.Attempted, res.Failed = countOK(measured)
	if res.Failed > 0 {
		return nil, fmt.Errorf("%w: %d of %d requests failed or were shed", errGate, res.Failed, res.Attempted)
	}
	if !o.trace {
		v, err := endToEndValues(setupS, heapMB, lr, sc)
		if err != nil {
			return nil, err
		}
		res.set(endToEnd, v)
	} else {
		v := values{}
		if err := layerCounters(v, lr, sc); err != nil {
			return nil, err
		}
		layerTraced(v, lr, tr, sc)
		if err := layerProbes(v, c, rs, w.queries(seed, sc, 0), sc.rpcProbes); err != nil {
			return nil, err
		}
		res.set(perLayer, v)
		if err := writeTrace(o.dataDir, w.name, tr.spans); err != nil {
			return nil, err
		}
	}
	// Last, because it stops node 0.
	if w.durable {
		if err := checkDurable(c, lr.acked0); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "measured window of the live workloads, in seconds (gossip_sim is a fixed number of simulations)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		repeat  = flag.Int("repeat", 1, "run this many interleaved sets on the one seed; check each end-to-end spread against its bound and that the generated load repeats exactly")
		out     = flag.String("out", "", "also write a machine-readable report to this file")
		dataDir = flag.String("datadir", "bench/out", "directory for the nodes' data directories (removed after each workload) and the trace files")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		fmt.Println(benchmarkJSON())
		return 0
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || *repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, and there are no positional arguments")
		return 2
	}
	o := options{sc: fullScale, measure: time.Duration(*seconds) * time.Second, trace: *trace != 0, dataDir: *dataDir}

	// A killed run must not leave data directories behind: the signal
	// cancels ctx, the running workload returns early, and its deferred
	// clean-up removes what it created (and nothing else of -datadir).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("# in-process cluster; HTTP and gossip cross loopback TCP; closed loop of %d clients; generator and nodes share %d CPUs\n",
		numClients(), runtime.GOMAXPROCS(0))
	var results []*result
	for set := 0; set < *repeat; set++ {
		for _, w := range selected {
			res, err := runWorkload(ctx, w, *seed, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			res.print()
			results = append(results, res)
		}
	}
	spreads, inBounds := spreadReport(results)
	if *repeat > 1 {
		for _, s := range spreads {
			fmt.Printf("# spread %s %s %.4f bound %.2f\n", s.Workload, s.Metric, s.Spread, s.Bound)
		}
	}
	if *out != "" {
		if err := writeReport(*out, o, results, spreads); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := checkRepeats(results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !inBounds {
		fmt.Fprintln(os.Stderr, "bench: a spread exceeds its bound")
		return 1
	}
	return 0
}

// checkRepeats asserts what must not vary between runs of one workload on
// one seed: the generated load, and everything gossip_sim reports except
// its set-up's wall time and heap.
func checkRepeats(results []*result) error {
	first := make(map[string]*result)
	for _, r := range results {
		f, ok := first[r.Workload]
		if !ok {
			first[r.Workload] = r
			continue
		}
		if r.OpsSHA256 != f.OpsSHA256 {
			return fmt.Errorf("%w: %s generated ops_sha256 %s, then %s, on seed %d", errGate, r.Workload, f.OpsSHA256, r.OpsSHA256, r.Seed)
		}
		if r.Workload != "gossip_sim" {
			continue
		}
		for i, m := range r.Metrics {
			if m.Name != "setup_s" && m.Name != "heap_mb" && m.Value != f.Metrics[i].Value {
				return fmt.Errorf("%w: gossip_sim %s read %v, then %v, on seed %d", errGate, m.Name, f.Metrics[i].Value, m.Value, r.Seed)
			}
		}
	}
	return nil
}

// spread is one end-to-end metric's run-to-run spread on one workload.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Median   float64 `json:"median"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
}

// spreadReport computes, per workload and end-to-end metric, the
// quartile spread over the repeat sets, and whether every gated one
// (all but setup_s) stays within its bound.
func spreadReport(results []*result) ([]spread, bool) {
	bounds := make(map[string]float64)
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	type key struct{ w, m string }
	vals := make(map[key][]float64)
	var order []key
	for _, r := range results {
		if r.Trace {
			continue
		}
		for _, m := range r.Metrics {
			k := key{r.Workload, m.Name}
			if _, ok := vals[k]; !ok {
				order = append(order, k)
			}
			vals[k] = append(vals[k], m.Value)
		}
	}
	ok := true
	var out []spread
	for _, k := range order {
		s := spread{k.w, k.m, median(vals[k]), quartileSpread(vals[k]), bounds[k.m]}
		if k.m != "setup_s" && s.Spread > s.Bound {
			ok = false
		}
		out = append(out, s)
	}
	return out, ok
}

// environment is what a baseline's numbers depend on besides the code.
type environment struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"datadir_fs"`
}

func readEnvironment(dataDir string) environment {
	e := environment{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x9123683E: "btrfs"}
		e.DataDirFS = names[int64(st.Type)]
		if e.DataDirFS == "" {
			e.DataDirFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return e
}

func writeReport(path string, o options, results []*result, spreads []spread) error {
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Environment environment `json:"environment"`
		Seconds     float64     `json:"seconds"`
		Runs        []*result   `json:"runs"`
		Spreads     []spread    `json:"spreads,omitempty"`
	}{readEnvironment(o.dataDir), o.measure.Seconds(), results, spreads}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package,
// so the file and the program cannot drift apart (a test compares them).
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // only strings and numbers: cannot fail
	}
	return string(b)
}
