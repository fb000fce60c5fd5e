// Command gossipsim reproduces the paper's gossiping experiments
// (Figures 2-5) and this repo's ingest, fault, restart, churn-storm,
// replication and directory-scale extensions on the discrete-event
// simulator, printing the series the paper plots as CSV. Every experiment
// but directory-scale (which times real memory probes) is exact per
// -seed. `gossipsim -h` lists the experiments and the flags each reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"planetp/internal/gossipsim"
	"planetp/internal/metrics"
)

// experiment is one row of the -exp table: run prints its CSV to w and
// returns the report -json writes (nil for none).
type experiment struct {
	name  string
	flags string // the flags it reads, for -h; "-json" among them marks a report
	run   func(w io.Writer, o *options) (report any, err error)
}

var experiments = []experiment{
	{"fig2", "[-sizes 100,200,500,1000] [-scenarios LAN,MIX]", fig2},
	{"fig3", "[-base 1000] [-joins 50,100,150,200,250] [-scenarios ...]", fig3},
	{"fig4a", "[-n 1000] [-arrivals 100]", fig4a},
	{"fig4b", "[-n 1000] (also emits the fig4c timeline)", fig4bc},
	{"fig4c", "= fig4b", fig4bc},
	{"fig5", "[-n 2000]", fig5},
	{"ingest", "[-n 200] [-docs 256] [-batches 1,16,64,256] [-scenarios ...]", ingest},
	{"faults", "[-n 50] [-drop 0.25] [-dup 0] [-delay 0] [-partition-at 0s] [-heal-at 0s] [-fault-seed 42]", faults},
	{"restart", "[-n 50] and the faults flags", restart},
	{"churn-storm", "[-n 32] [-rates 0.5,1,2,4] [-seed 7] [-json BENCH_churn.json]", churnStorm},
	{"replication", "[-n 32] [-rep-docs 320] [-ks 1,3] [-seed 7] [-json BENCH_replication.json]", replication},
	{"directory-scale", "[-sizes 10000,100000] [-terms 1000] [-cache-budget 67108864] [-converge-max 10000] [-max-bytes-per-peer 0] [-memprofile heap.pprof] [-json F]", directoryScale},
}

// options is every flag, parsed.
type options struct {
	sizes, joins, batches, ks list[int]
	rates                     list[float64]
	base, n, arrivals         int
	docs, repDocs             int
	seed                      int64
	picked                    []gossipsim.Scenario // -scenarios
	faults                    gossipsim.FaultSpec
	jsonPath, memProfile      string
	scale                     gossipsim.ScaleSpec
	maxBytesPerPeer           float64
}

// list is a comma-separated flag; parse reads one element.
type list[T any] struct {
	v     []T
	parse func(string) (T, error)
}

func ints(def ...int) list[int] { return list[int]{def, strconv.Atoi} }

// or is the flag's value, or def when it was neither given nor defaulted.
func (l list[T]) or(def ...T) []T {
	if l.v == nil {
		return def
	}
	return l.v
}

func (l *list[T]) String() string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(l.v), "[]"), " ", ",")
}

func (l *list[T]) Set(s string) error {
	l.v = nil
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := l.parse(f)
		if err != nil {
			return err
		}
		l.v = append(l.v, v)
	}
	return nil
}

// scenarios resolves -scenarios, or returns the experiment's default.
func (o *options) scenarios(def ...gossipsim.Scenario) []gossipsim.Scenario {
	if len(o.picked) > 0 {
		return o.picked
	}
	return def
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, runs the -exp experiment printing to w, and writes its
// -json report if it has one.
func run(args []string, w io.Writer) error {
	o := options{
		sizes: ints(), joins: ints(50, 100, 150, 200, 250),
		batches: ints(1, 16, 64, 256), ks: ints(1, 3),
		rates: list[float64]{[]float64{0.5, 1, 2, 4}, func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err == nil && v <= 0 {
				err = fmt.Errorf("rate %v is not positive", v)
			}
			return v, err
		}},
	}
	var names, withJSON []string
	help := "experiment, one of:"
	for _, e := range experiments {
		names = append(names, e.name)
		help += "\n  " + e.name + " " + e.flags
		if strings.Contains(e.flags, "-json") {
			withJSON = append(withJSON, e.name)
		}
	}
	fs := flag.NewFlagSet("gossipsim", flag.ExitOnError)
	exp := fs.String("exp", "fig2", help+"\n")
	fs.Var(&o.sizes, "sizes", "community sizes for fig2 and directory-scale (default per experiment)")
	fs.IntVar(&o.base, "base", 1000, "base community size for fig3")
	fs.Var(&o.joins, "joins", "joiner counts for fig3")
	fs.IntVar(&o.n, "n", 1000, "community size")
	fs.IntVar(&o.arrivals, "arrivals", 100, "arrivals for fig4a")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Func("scenarios", "comma-separated scenario subset (default per experiment)", o.pick)
	fs.Float64Var(&o.faults.Drop, "drop", 0.25, "faults: message drop probability")
	fs.Float64Var(&o.faults.Dup, "dup", 0, "faults: message duplication probability")
	fs.Float64Var(&o.faults.Delay, "delay", 0, "faults: message delay probability")
	fs.DurationVar(&o.faults.PartitionAt, "partition-at", 0, "faults: when to split the community in half (with -heal-at)")
	fs.DurationVar(&o.faults.HealAt, "heal-at", 0, "faults: when the partition heals (> -partition-at enables the split)")
	fs.Int64Var(&o.faults.Seed, "fault-seed", 42, "faults: fault-schedule seed")
	fs.IntVar(&o.docs, "docs", 256, "ingest: documents in the publish burst")
	fs.Var(&o.batches, "batches", "ingest: batch sizes to sweep")
	fs.Var(&o.rates, "rates", "churn-storm: churn-rate multipliers to sweep")
	fs.Var(&o.ks, "ks", "replication: replication factors to sweep")
	fs.IntVar(&o.repDocs, "rep-docs", 320, "replication: modeled document population")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full report as JSON to this path ("+strings.Join(withJSON, ", ")+")")
	fs.IntVar(&o.scale.TermsPerFilter, "terms", 1000, "directory-scale: keys per peer Bloom filter")
	fs.Int64Var(&o.scale.CacheBudget, "cache-budget", 0, "directory-scale: probe-cache byte budget (0 = 64 MiB default)")
	fs.IntVar(&o.scale.ConvergeMax, "converge-max", 10000, "directory-scale: run the convergence probe only at sizes up to this")
	fs.Float64Var(&o.maxBytesPerPeer, "max-bytes-per-peer", 0, "directory-scale: exit non-zero if directory bytes/peer exceeds this at any size (0 = no guard)")
	fs.StringVar(&o.memProfile, "memprofile", "", "directory-scale: write a heap profile at steady state to this path")
	fs.Parse(args)
	o.faults.Partition = o.faults.HealAt > o.faults.PartitionAt
	o.scale.Seed = o.seed

	for _, e := range experiments {
		if e.name != *exp {
			continue
		}
		report, err := e.run(w, &o)
		if report != nil && o.jsonPath != "" {
			data, jerr := json.MarshalIndent(report, "", "  ")
			if jerr == nil {
				jerr = os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
			}
			if jerr != nil {
				return jerr
			}
			fmt.Fprintf(w, "# wrote %s\n", o.jsonPath)
		}
		return err
	}
	return fmt.Errorf("unknown experiment %q; valid: %s", *exp, strings.Join(names, " "))
}

// pick parses -scenarios.
func (o *options) pick(arg string) error {
next:
	for _, name := range strings.Split(arg, ",") {
		for _, sc := range []gossipsim.Scenario{
			gossipsim.LAN, gossipsim.LANAE, gossipsim.LANNPA,
			gossipsim.DSL10, gossipsim.DSL30, gossipsim.DSL60, gossipsim.MIX,
		} {
			if sc.Name == strings.TrimSpace(name) {
				o.picked = append(o.picked, sc)
				continue next
			}
		}
		return fmt.Errorf("unknown scenario %q", name)
	}
	return nil
}

// summarize prints a per-run metrics summary (rounds, messages, bytes)
// as a CSV comment line.
func summarize(w io.Writer, reg *metrics.Registry, label string, peers int) {
	s := reg.Snapshot()
	rounds := s.Get("gossip_rounds_total")
	avg := 0.0
	if peers > 0 {
		avg = float64(rounds) / float64(peers)
	}
	fmt.Fprintf(w, "# run %s: rounds=%d (%.1f/peer) msgs=%d bytes=%d rumors=%d ae=%d pulls=%d news=%d failed_sends=%d\n",
		label, rounds, avg,
		s.Get("simnet_msgs_total"), s.Get("simnet_bytes_total"),
		s.Get("gossip_rumors_sent_total"), s.Get("gossip_ae_requests_total"),
		s.Get("gossip_pulls_sent_total"), s.Get("gossip_news_learned_total"),
		s.Get("simnet_failed_sends_total"))
}

// fig2: propagation time (a), aggregate volume (b), per-peer bandwidth
// (c) of one 1000-key Bloom filter vs community size.
func fig2(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Figure 2: propagate one 1000-key Bloom filter through a stable community")
	fmt.Fprintln(w, "scenario,peers,prop_time_s,total_bytes,per_peer_Bps")
	for _, sc := range o.scenarios(gossipsim.LAN, gossipsim.LANAE,
		gossipsim.DSL10, gossipsim.DSL30, gossipsim.DSL60, gossipsim.MIX) {
		for _, n := range o.sizes.or(50, 100, 200, 300, 500, 750, 1000, 1500, 2000, 3000) {
			sc.Metrics = metrics.NewRegistry()
			p := gossipsim.Propagation(sc, n, o.seed+int64(n))
			fmt.Fprintf(w, "%s,%d,%.1f,%d,%.1f\n",
				sc.Name, n, p.Time.Seconds(), p.Bytes, p.PerPeerBW)
			summarize(w, sc.Metrics, fmt.Sprintf("%s n=%d", sc.Name, n), n)
		}
	}
	return nil, nil
}

// fig3: time for joiners to merge into a stable base community.
func fig3(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Figure 3: x-base peers join a stable community (20000 keys each)")
	fmt.Fprintln(w, "scenario,base,joiners,time_s,total_bytes,converged")
	for _, sc := range o.scenarios(gossipsim.LAN, gossipsim.DSL30, gossipsim.MIX) {
		for _, j := range o.joins.v {
			sc.Metrics = metrics.NewRegistry()
			r := gossipsim.Join(sc, o.base, j, o.seed+int64(j))
			fmt.Fprintf(w, "%s,%d,%d,%.1f,%d,%v\n",
				sc.Name, o.base, j, r.Time.Seconds(), r.Bytes, r.Converged)
			summarize(w, sc.Metrics, fmt.Sprintf("%s base=%d joins=%d", sc.Name, o.base, j), o.base+j)
		}
	}
	return nil, nil
}

// fig4a: convergence-time CDF of Poisson arrivals, with vs without the
// partial anti-entropy.
func fig4a(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Figure 4a: arrival convergence CDF, with (LAN) and without (LAN-NPA) partial anti-entropy")
	fmt.Fprintln(w, "scenario,percentile,conv_time_s")
	for _, sc := range []gossipsim.Scenario{gossipsim.LAN, gossipsim.LANNPA} {
		sc.Metrics = metrics.NewRegistry()
		cdf := gossipsim.ArrivalCDF(sc, o.n, o.arrivals, 90*time.Second, o.seed)
		printCDF(w, sc.Name, cdf)
		summarize(w, sc.Metrics, fmt.Sprintf("%s n=%d arrivals=%d", sc.Name, o.n, o.arrivals), o.n+o.arrivals)
	}
	return nil, nil
}

func printCDF(w io.Writer, name string, cdf gossipsim.CDF) {
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 100} {
		fmt.Fprintf(w, "%s,%.0f,%.1f\n", name, p, cdf.Percentile(p).Seconds())
	}
	if cdf.Unconverged > 0 {
		fmt.Fprintf(w, "%s,unconverged,%d\n", name, cdf.Unconverged)
	}
}

// fig4bc: dynamic community (Section 7.2's churn mix) convergence CDF and
// aggregate bandwidth timeline.
func fig4bc(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Figure 4b: dynamic community convergence CDF; Figure 4c: bandwidth timeline")
	cfg := gossipsim.DefaultChurn(o.n)
	for _, sc := range []gossipsim.Scenario{gossipsim.LAN, gossipsim.MIX} {
		sc.Metrics = metrics.NewRegistry()
		r := gossipsim.Churn(sc, cfg, o.seed)
		fmt.Fprintf(w, "# %s: %d events, aggregate bandwidth %.1f KB/s\n",
			sc.Name, r.Events, r.AggregateBandwidth()/1e3)
		fmt.Fprintln(w, "scenario,percentile,conv_time_s")
		printCDF(w, sc.Name, r.All)
		fmt.Fprintln(w, "scenario,second,bytes")
		for s := r.MeasureStart; s < r.MeasureEnd && s < len(r.Timeline); s += 30 {
			fmt.Fprintf(w, "%s,%d,%d\n", sc.Name, s-r.MeasureStart, r.Timeline[s])
		}
		summarize(w, sc.Metrics, fmt.Sprintf("%s n=%d churn", sc.Name, o.n), o.n)
	}
	return nil, nil
}

// fig5: 2000-member dynamic community; MIX-F/MIX-S fast/slow-source
// convergence with the fast-peers-only condition.
func fig5(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Figure 5: dynamic community convergence CDF (LAN, MIX, MIX-F, MIX-S)")
	cfg := gossipsim.DefaultChurn(o.n)
	fmt.Fprintln(w, "scenario,percentile,conv_time_s")
	for _, sc := range []gossipsim.Scenario{gossipsim.LAN, gossipsim.MIX} {
		printCDF(w, sc.Name, gossipsim.Churn(sc, cfg, o.seed).All)
	}
	cfg.FastOnly = true
	r := gossipsim.Churn(gossipsim.MIX, cfg, o.seed)
	printCDF(w, "MIX-F", r.Fast)
	printCDF(w, "MIX-S", r.Slow)
	return nil, nil
}

// ingest: one peer publishes a document burst per-doc vs batched; the
// gossip cost of the burst is the announcement count, total bytes, and
// convergence time on the final version.
func ingest(w io.Writer, o *options) (any, error) {
	fmt.Fprintf(w, "# Ingest burst: %d docs published per-doc vs batched (%d keys/doc)\n",
		o.docs, gossipsim.TermsPerDoc)
	fmt.Fprintln(w, "scenario,peers,docs,batch,publishes,time_s,total_bytes,converged")
	for _, sc := range o.scenarios(gossipsim.LAN, gossipsim.DSL30) {
		for _, batch := range o.batches.v {
			r := gossipsim.Ingest(sc, o.n, o.docs, batch, 0, o.seed)
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.1f,%d,%v\n",
				r.Scenario, r.N, r.Docs, r.Batch, r.Publishes,
				r.Time.Seconds(), r.Bytes, r.Converged)
		}
	}
	return nil, nil
}

// faults: convergence of one update through injected faults, with the
// schedule fingerprint so two runs with equal seeds can be diffed.
func faults(w io.Writer, o *options) (any, error) {
	spec := o.faults
	fmt.Fprintln(w, "# Faults: propagate one 1000-key update through injected message faults")
	fmt.Fprintf(w, "# drop=%.2f dup=%.2f delay=%.2f partition=%v heal=%v fault_seed=%d seed=%d\n",
		spec.Drop, spec.Dup, spec.Delay, spec.PartitionAt, spec.HealAt, spec.Seed, o.seed)
	sc := gossipsim.LAN
	sc.Metrics = metrics.NewRegistry()
	r := gossipsim.ConvergenceUnderFaults(sc, o.n, spec, o.seed)
	fmt.Fprintln(w, "peers,converged,time_s,digests_equal,schedule_hash,drops,dups,delays,dial_fails,partition_blocks,messages")
	fmt.Fprintf(w, "%d,%v,%.1f,%v,%016x,%d,%d,%d,%d,%d,%d\n",
		o.n, r.Converged, r.Time.Seconds(), r.DigestsEqual, r.ScheduleHash,
		r.Faults.Drops, r.Faults.Dups, r.Faults.Delays, r.Faults.DialFails,
		r.Faults.PartitionBlocks, r.Faults.Messages)
	summarize(w, sc.Metrics, fmt.Sprintf("faults n=%d", o.n), o.n)
	return nil, nil
}

// restart: a peer crashes mid-gossip with a torn WAL record, recovers
// from disk, and restarts at a superseding epoch through injected
// network faults.
func restart(w io.Writer, o *options) (any, error) {
	spec := o.faults
	fmt.Fprintln(w, "# Restart: crash a peer mid-gossip (torn WAL), recover from disk, rejoin under faults")
	fmt.Fprintf(w, "# drop=%.2f dup=%.2f delay=%.2f fault_seed=%d seed=%d\n",
		spec.Drop, spec.Dup, spec.Delay, spec.Seed, o.seed)
	sc := gossipsim.LAN
	sc.Metrics = metrics.NewRegistry()
	r := gossipsim.RestartUnderFaults(sc, o.n, spec, o.seed)
	fmt.Fprintln(w, "peers,converged,time_s,old_ver,new_ver,recovered_ops,truncated_records,stale_records,schedule_hash,drops,messages")
	fmt.Fprintf(w, "%d,%v,%.1f,%d.%d,%d.%d,%d,%d,%d,%016x,%d,%d\n",
		o.n, r.Converged, r.Time.Seconds(),
		r.OldVer.Epoch, r.OldVer.Seq, r.NewVer.Epoch, r.NewVer.Seq,
		r.RecoveredOps, r.TruncatedRecords, r.StaleRecords,
		r.ScheduleHash, r.Faults.Drops, r.Faults.Messages)
	summarize(w, sc.Metrics, fmt.Sprintf("restart n=%d", o.n), o.n)
	return nil, nil
}

// stormReport is the churn-storm experiment's JSON shape (BENCH_churn.json).
type stormReport struct {
	N         int                     `json:"n"`
	Seed      int64                   `json:"seed"`
	Scenarios []gossipsim.StormResult `json:"scenarios"`
	Sweep     []gossipsim.RatePoint   `json:"sweep"`
}

// churnStorm: the storm acceptance trio (flash crowd, mass departure,
// partition-heal mass rejoin) plus the staleness-vs-churn-rate sweep.
// Sized for tens of peers — the horizons scale with n and the measurement
// is O(n²) per sample, so keep -n modest.
func churnStorm(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Churn storms: directory staleness, T_Dead GC correctness, and bandwidth under scripted membership storms")
	report := stormReport{N: o.n, Seed: o.seed}
	fmt.Fprintln(w, "scenario,n,converged,live_drops,dead_violations,dead_cleared_s,stale_incarnations,final_staleness,final_coverage,total_bytes,bytes_per_round")
	for _, spec := range gossipsim.StormScenarios(o.n) {
		r := gossipsim.Storm(gossipsim.STORM, spec, o.seed)
		report.Scenarios = append(report.Scenarios, r)
		fmt.Fprintf(w, "%s,%d,%v,%d,%d,%.0f,%d,%.4f,%.4f,%d,%.0f\n",
			r.Name, r.N, r.Converged, r.LiveDrops, r.DeadViolations,
			r.DeadClearedS, r.StaleIncarnations, r.FinalStaleness,
			r.FinalCoverage, r.TotalBytes, r.BytesPerRound)
	}
	fmt.Fprintln(w, "rate,events,mean_staleness,mean_online,bytes_per_sec,bytes_per_round")
	report.Sweep = gossipsim.ChurnRateSweep(gossipsim.STORM, o.n, o.rates.v, o.seed)
	for _, pt := range report.Sweep {
		fmt.Fprintf(w, "%.2f,%d,%.4f,%.1f,%.1f,%.1f\n",
			pt.Rate, pt.Events, pt.MeanStaleness, pt.MeanOnline,
			pt.BytesPerSec, pt.BytesPerRound)
	}
	return report, nil
}

// replicationReport is the replication experiment's JSON shape
// (BENCH_replication.json).
type replicationReport struct {
	N    int                           `json:"n"`
	Docs int                           `json:"docs"`
	Ks   []int                         `json:"ks"`
	Seed int64                         `json:"seed"`
	Runs []gossipsim.ReplicationResult `json:"runs"`
}

// replication: hit availability vs replication factor under the
// mass-departure and partition-heal storms. At k=1 content dies with its
// owners; at k=3 the hot decile rides out the storm on its replicas.
func replication(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Replication: hit availability vs replication factor under membership storms")
	report := replicationReport{N: o.n, Docs: o.repDocs, Ks: o.ks.v, Seed: o.seed}
	fmt.Fprintln(w, "scenario,n,k,docs,hot_docs,min_hot_avail,final_hot_avail,final_hit_avail,final_avail,mean_hit_avail,lost_docs,lost_hot_docs,repairs")
	for _, spec := range gossipsim.ReplicationScenarios(o.n) {
		for _, k := range o.ks.v {
			r := gossipsim.Replication(gossipsim.STORM, spec, o.repDocs, k, o.seed)
			report.Runs = append(report.Runs, r)
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,%d\n",
				r.Name, r.N, r.K, r.Docs, r.HotDocs,
				r.MinHotAvailability, r.FinalHotAvailability,
				r.FinalHitAvailability, r.FinalAvailability,
				r.MeanHitAvailability, r.LostDocs, r.LostHotDocs, r.Repairs)
		}
	}
	return report, nil
}

// scaleReport is the directory-scale experiment's JSON shape.
type scaleReport struct {
	TermsPerFilter int                    `json:"terms_per_filter"`
	CacheBudget    int64                  `json:"cache_budget"`
	Seed           int64                  `json:"seed"`
	Points         []gossipsim.ScalePoint `json:"points"`
}

// directoryScale: weigh one compressed-resident directory replica at each
// community size against the decompressed-filter baseline, sweep a query
// fan-out through the probe cache cold and warm, and (up to -converge-max)
// tie the numbers to a live propagation-convergence probe. The
// -max-bytes-per-peer guard turns the memory diet into a CI gate.
func directoryScale(w io.Writer, o *options) (any, error) {
	fmt.Fprintln(w, "# Directory scale: per-replica memory and probe latency of the compressed-resident directory")
	fmt.Fprintln(w, "n,payload_bytes,dir_bytes_per_peer,baseline_bytes_per_peer,ratio,cold_probe_ns,warm_probe_ns,cache_resident_bytes,heap_alloc_bytes,converge_s,build_s")
	report := scaleReport{TermsPerFilter: o.scale.TermsPerFilter, CacheBudget: o.scale.CacheBudget, Seed: o.seed}
	var violated error
	for _, n := range o.sizes.or(10000, 100000) {
		sp := o.scale
		sp.N = n
		pt := gossipsim.DirectoryScale(gossipsim.LAN, sp)
		report.Points = append(report.Points, pt)
		fmt.Fprintf(w, "%d,%d,%.1f,%.1f,%.4f,%.0f,%.0f,%d,%d,%.1f,%.2f\n",
			pt.N, pt.PayloadBytes, pt.BytesPerPeer, pt.BaselineBytesPerPeer,
			pt.Ratio, pt.ColdProbeNS, pt.WarmProbeNS, pt.CacheResidentBytes,
			pt.HeapAllocBytes, pt.ConvergeS, pt.BuildS)
		if o.maxBytesPerPeer > 0 && pt.BytesPerPeer > o.maxBytesPerPeer {
			violated = errors.Join(violated, fmt.Errorf("directory-scale: n=%d bytes/peer %.1f exceeds budget %.1f",
				n, pt.BytesPerPeer, o.maxBytesPerPeer))
		}
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return report, err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return report, err
		}
		fmt.Fprintf(w, "# wrote %s\n", o.memProfile)
	}
	return report, violated
}
