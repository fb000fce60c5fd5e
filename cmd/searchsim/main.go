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
	"io"
	"os"
	"strconv"
	"strings"

	"planetp/internal/collection"
	"planetp/internal/ir"
	"planetp/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run parses args and runs the -exp experiment, printing to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("searchsim", flag.ExitOnError)
	exp := fs.String("exp", "fig6a", "experiment: table3|fig6a|fig6b|fig6c")
	colName := fs.String("collection", "AP89", "collection: CACM|MED|CRAN|CISI|AP89")
	scale := fs.Int("scale", 8, "collection scale-down factor (1 = paper size)")
	peers := fs.Int("peers", 400, "community size (fig6a/6c)")
	k := fs.Int("k", 20, "documents requested (fig6b)")
	sizesArg := fs.String("sizes", "100,200,400,600,800,1000", "community sizes for fig6b")
	ksArg := fs.String("ks", "10,20,50,100,150,200,300,400", "k sweep for fig6a/6c")
	dist := fs.String("dist", "weibull", "document distribution: weibull|uniform")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	distribution := ir.Weibull
	if *dist == "uniform" {
		distribution = ir.Uniform
	}
	var ints []int // -ks for fig6a/6c, -sizes for fig6b
	var err error
	switch *exp {
	case "table3":
		table3(w, *scale, *seed)
		return nil
	case "fig6a", "fig6c":
		ints, err = parseInts(*ksArg)
	case "fig6b":
		ints, err = parseInts(*sizesArg)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		return err
	}
	if _, ok := collection.Specs[*colName]; !ok {
		return fmt.Errorf("unknown collection %q", *colName)
	}
	col := collection.Generate(collection.ScaledSpec(*colName, *scale), *seed)
	if *exp == "fig6b" {
		fig6b(w, col, *k, ints, distribution, *seed)
	} else {
		fig6ac(w, col, *peers, ints, distribution, *seed)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// table3 prints the realized characteristics of every generated
// collection next to the paper's numbers.
func table3(w io.Writer, scale int, seed int64) {
	fmt.Fprintf(w, "# Table 3: collection characteristics (synthetic stand-ins, scale 1/%d)\n", scale)
	fmt.Fprintln(w, "collection,queries,documents,words,size_mb")
	for _, name := range []string{"CACM", "MED", "CRAN", "CISI", "AP89"} {
		s := collection.Generate(collection.ScaledSpec(name, scale), seed).Stats()
		fmt.Fprintf(w, "%s,%d,%d,%d,%.1f\n", s.Name, s.Queries, s.Documents, s.Words, s.SizeMB)
	}
}

// fig6ac sweeps k: recall/precision (6a) and peers contacted (6c).
func fig6ac(w io.Writer, col *collection.Collection, peers int, ks []int, dist ir.Distribution, seed int64) {
	com := ir.Distribute(col, peers, dist, seed+7)
	com.Metrics = metrics.NewRegistry()
	fmt.Fprintf(w, "# Figure 6a/6c: %s over %d peers (%s distribution)\n", col.Name, peers, dist)
	fmt.Fprintln(w, "k,recall_idf,prec_idf,recall_ipf,prec_ipf,peers_idf,peers_ipf,peers_best")
	for _, pt := range ir.Evaluate(com, ks) {
		fmt.Fprintf(w, "%d,%.3f,%.3f,%.3f,%.3f,%.1f,%.1f,%.1f\n",
			pt.K, pt.RecallIDF, pt.PrecisionIDF, pt.RecallIPF, pt.PrecisionIPF,
			pt.PeersIDF, pt.PeersIPF, pt.PeersBest)
	}
	summarize(w, com.Metrics)
}

// fig6b: recall at fixed k vs community size.
func fig6b(w io.Writer, col *collection.Collection, k int, sizes []int, dist ir.Distribution, seed int64) {
	reg := metrics.NewRegistry()
	fmt.Fprintf(w, "# Figure 6b: %s recall at k=%d vs community size (%s)\n", col.Name, k, dist)
	fmt.Fprintln(w, "peers,recall_ipf,recall_idf")
	for _, pt := range ir.RecallVsSize(col, sizes, k, dist, seed+7, reg) {
		fmt.Fprintf(w, "%d,%.3f,%.3f\n", pt.Peers, pt.RecallIPF, pt.RecallIDF)
	}
	summarize(w, reg)
}

// summarize prints the run's aggregate search-cost metrics as CSV
// comment lines.
func summarize(w io.Writer, reg *metrics.Registry) {
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
	fmt.Fprintf(w, "# run summary: ranked_queries=%d peers_contacted=%d (%.1f/query) docs_retrieved=%d stopped_early=%d\n",
		queries, contacted, avg, s.Get("search_docs_retrieved_total"), s.Get("search_stopped_early_total"))
	if h, ok := s.Histograms["search_peers_per_query"]; ok {
		fmt.Fprintf(w, "# peers/query histogram: bounds=%v counts=%v\n", h.Bounds, h.Counts)
	}
	if h, ok := s.Histograms["search_fetch_latency_us"]; ok && h.Count > 0 {
		fmt.Fprintf(w, "# fetch latency: n=%d mean=%.1fus\n", h.Count, float64(h.Sum)/float64(h.Count))
	}
}
