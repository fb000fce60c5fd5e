// Command searchsim reproduces the paper's search and retrieval
// experiments (Section 7.3): Table 3's collection characteristics and
// Figure 6's recall/precision/peers-contacted comparisons between the
// centralized TFxIDF baseline and PlanetP's TFxIPF with adaptive
// stopping.
//
// Usage:
//
//	searchsim -exp table3
//	searchsim -exp fig6a [-collection AP89] [-scale 8] [-peers 400]
//	searchsim -exp fig6b [-k 20] [-sizes 100,200,...,1000]
//	searchsim -exp fig6c [-collection AP89] [-scale 8] [-peers 400]
//
// -scale divides the collection's document and vocabulary counts to keep
// run times interactive; -scale 1 is the paper's full size.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"planetp/internal/collection"
	"planetp/internal/ir"
	"planetp/internal/metrics"
	"planetp/internal/search"
)

func main() {
	exp := flag.String("exp", "fig6a", "experiment: table3|fig6a|fig6b|fig6c")
	colName := flag.String("collection", "AP89", "collection: CACM|MED|CRAN|CISI|AP89")
	scale := flag.Int("scale", 8, "collection scale-down factor (1 = paper size)")
	peers := flag.Int("peers", 400, "community size (fig6a/6c)")
	k := flag.Int("k", 20, "documents requested (fig6b)")
	sizesArg := flag.String("sizes", "100,200,400,600,800,1000", "community sizes for fig6b")
	ksArg := flag.String("ks", "10,20,50,100,150,200,300,400", "k sweep for fig6a/6c")
	dist := flag.String("dist", "weibull", "document distribution: weibull|uniform")
	seed := flag.Int64("seed", 1, "random seed")
	group := flag.Int("group", 0, "contact peers in groups of m (Section 5.2; 0 = one by one)")
	flag.Parse()

	distribution := ir.Weibull
	if *dist == "uniform" {
		distribution = ir.Uniform
	}

	opts := search.Options{GroupSize: *group}

	switch *exp {
	case "table3":
		table3(*scale, *seed)
	case "fig6a", "fig6c":
		fig6ac(*colName, *scale, *peers, parseInts(*ksArg), distribution, *seed, opts)
	case "fig6b":
		fig6b(*colName, *scale, *k, parseInts(*sizesArg), distribution, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func getCollection(name string, scale int, seed int64) *collection.Collection {
	if _, ok := collection.Specs[name]; !ok {
		fmt.Fprintf(os.Stderr, "unknown collection %q\n", name)
		os.Exit(2)
	}
	return collection.Generate(collection.ScaledSpec(name, scale), seed)
}

// table3 prints the realized characteristics of every generated
// collection next to the paper's numbers.
func table3(scale int, seed int64) {
	fmt.Printf("# Table 3: collection characteristics (synthetic stand-ins, scale 1/%d)\n", scale)
	fmt.Println("collection,queries,documents,words,size_mb")
	for _, name := range []string{"CACM", "MED", "CRAN", "CISI", "AP89"} {
		col := getCollection(name, scale, seed)
		s := col.Stats()
		fmt.Printf("%s,%d,%d,%d,%.1f\n", s.Name, s.Queries, s.Documents, s.Words, s.SizeMB)
	}
}

// fig6ac sweeps k: recall/precision (6a) and peers contacted (6c).
func fig6ac(name string, scale, peers int, ks []int, dist ir.Distribution, seed int64, opts search.Options) {
	col := getCollection(name, scale, seed)
	com := ir.Distribute(col, peers, dist, seed+7)
	com.Metrics = metrics.NewRegistry()
	com.SearchOpts = opts
	fmt.Printf("# Figure 6a/6c: %s over %d peers (%s distribution)\n", col.Name, peers, dist)
	fmt.Println("k,recall_idf,prec_idf,recall_ipf,prec_ipf,peers_idf,peers_ipf,peers_best")
	for _, pt := range ir.Evaluate(com, ks) {
		fmt.Printf("%d,%.3f,%.3f,%.3f,%.3f,%.1f,%.1f,%.1f\n",
			pt.K, pt.RecallIDF, pt.PrecisionIDF, pt.RecallIPF, pt.PrecisionIPF,
			pt.PeersIDF, pt.PeersIPF, pt.PeersBest)
	}
	summarize(com.Metrics)
}

// fig6b: recall at fixed k vs community size.
func fig6b(name string, scale, k int, sizes []int, dist ir.Distribution, seed int64) {
	col := getCollection(name, scale, seed)
	reg := metrics.NewRegistry()
	fmt.Printf("# Figure 6b: %s recall at k=%d vs community size (%s)\n", col.Name, k, dist)
	fmt.Println("peers,recall_ipf,recall_idf")
	for _, pt := range ir.RecallVsSize(col, sizes, k, dist, seed+7, reg) {
		fmt.Printf("%d,%.3f,%.3f\n", pt.Peers, pt.RecallIPF, pt.RecallIDF)
	}
	summarize(reg)
}

// summarize prints the run's aggregate search-cost metrics as CSV
// comment lines.
func summarize(reg *metrics.Registry) {
	s := reg.Snapshot()
	queries := s.Get("search_ranked_queries_total")
	contacted := s.Get("search_peers_contacted_total")
	avg := 0.0
	if queries > 0 {
		avg = float64(contacted) / float64(queries)
	}
	// docs_retrieved here counts every match: the simulator's in-process
	// fetchers return full lists (they are not search.TopKFetchers), unlike
	// a live node, whose peers answer with at most k documents each.
	fmt.Printf("# run summary: ranked_queries=%d peers_contacted=%d (%.1f/query) docs_retrieved=%d stop_iterations=%d stopped_early=%d\n",
		queries, contacted, avg, s.Get("search_docs_retrieved_total"),
		s.Get("search_stop_iterations_total"), s.Get("search_stopped_early_total"))
	if h, ok := s.Histograms["search_peers_per_query"]; ok {
		fmt.Printf("# peers/query histogram: bounds=%v counts=%v\n", h.Bounds, h.Counts)
	}
	if h, ok := s.Histograms["search_fetch_latency_us"]; ok && h.Count > 0 {
		fmt.Printf("# fetch latency: n=%d mean=%.1fus\n", h.Count, float64(h.Sum)/float64(h.Count))
	}
}
