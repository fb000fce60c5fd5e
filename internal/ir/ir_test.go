package ir

import (
	"math"
	"testing"

	"planetp/internal/collection"
	"planetp/internal/search"
)

func testCollection(t *testing.T) *collection.Collection {
	t.Helper()
	return collection.Generate(collection.ScaledSpec("CACM", 8), 42)
}

func TestDistributeCoversAllDocs(t *testing.T) {
	col := testCollection(t)
	c := Distribute(col, 40, Weibull, 1)
	if c.NumPeers != 40 || len(c.Filters) != 40 {
		t.Fatalf("community shape: %d peers", c.NumPeers)
	}
	total := 0
	for p, docs := range c.DocsOf {
		total += len(docs)
		for _, d := range docs {
			if int(c.PeerOf[d]) != p {
				t.Fatalf("PeerOf/DocsOf inconsistent for doc %d", d)
			}
		}
	}
	if total != len(col.Docs) {
		t.Fatalf("assigned %d docs, want %d", total, len(col.Docs))
	}
}

func TestWeibullSkewedUniformFlat(t *testing.T) {
	col := testCollection(t)
	wb := Distribute(col, 40, Weibull, 2)
	un := Distribute(col, 40, Uniform, 2)
	maxShare := func(c *Community) float64 {
		max := 0
		for _, docs := range c.DocsOf {
			if len(docs) > max {
				max = len(docs)
			}
		}
		return float64(max) / float64(len(col.Docs))
	}
	if maxShare(wb) <= maxShare(un) {
		t.Fatalf("Weibull max share %.3f should exceed uniform %.3f",
			maxShare(wb), maxShare(un))
	}
	if Weibull.String() != "weibull" || Uniform.String() != "uniform" {
		t.Fatal("Distribution.String")
	}
}

func TestFiltersReflectContent(t *testing.T) {
	col := testCollection(t)
	c := Distribute(col, 20, Weibull, 3)
	// Every term of every doc must hit its peer's filter (no false
	// negatives).
	for d := range col.Docs {
		p := c.PeerOf[d]
		for term := range col.Docs[d].Freqs {
			if !c.Contains(p, term) {
				t.Fatalf("peer %d filter missing term %q of its own doc", p, term)
			}
		}
	}
}

func TestQueryPeerSemantics(t *testing.T) {
	col := testCollection(t)
	c := Distribute(col, 20, Uniform, 4)
	q := col.Queries[0]
	for _, id := range c.Peers() {
		any, err := c.QueryPeer(id, q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range any {
			found := false
			for _, term := range q.Terms {
				if d.TermFreqs[term] > 0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("QueryPeer returned doc with no query terms: %+v", d)
			}
			if d.DocLen <= 0 {
				t.Fatal("missing DocLen")
			}
		}
		all, err := c.QueryPeerAll(id, q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range all {
			for _, term := range q.Terms {
				if d.TermFreqs[term] <= 0 {
					t.Fatalf("QueryPeerAll returned doc missing %q", term)
				}
			}
		}
		if len(all) > len(any) {
			t.Fatal("conjunctive results exceed disjunctive")
		}
	}
}

func TestDocKeyRoundTrip(t *testing.T) {
	for _, i := range []int{0, 7, 123456} {
		idx, ok := ParseDocKey(DocKey(i))
		if !ok || idx != i {
			t.Fatalf("round trip %d -> %v %v", i, idx, ok)
		}
	}
	if _, ok := ParseDocKey("x7"); ok {
		t.Fatal("bad prefix accepted")
	}
	if _, ok := ParseDocKey("d"); ok {
		t.Fatal("empty index accepted")
	}
	if _, ok := ParseDocKey("dxyz"); ok {
		t.Fatal("non-numeric accepted")
	}
}

func TestGlobalIndexIDF(t *testing.T) {
	col := testCollection(t)
	g := BuildGlobal(col)
	if g.IDF("never-seen-term") != 0 {
		t.Fatal("IDF of absent term should be 0")
	}
	// A topic term (rare) must out-IDF the background head term.
	q := col.Queries[0]
	rare := g.IDF(q.Terms[0])
	common := g.IDF("w0") // Zipf head
	if rare <= common {
		t.Fatalf("IDF(rare)=%.3f <= IDF(common)=%.3f", rare, common)
	}
}

func TestGlobalTopKFindsRelevant(t *testing.T) {
	col := testCollection(t)
	g := BuildGlobal(col)
	// The centralized baseline should achieve solid precision at
	// moderate k on this synthetic collection.
	var totalP float64
	for qi := range col.Queries {
		q := &col.Queries[qi]
		top := g.TopK(q.Terms, 20)
		_, p := RecallPrecision(top, q.Relevant)
		totalP += p
	}
	avgP := totalP / float64(len(col.Queries))
	if avgP < 0.5 {
		t.Fatalf("TFxIDF precision@20 = %.3f; collection has no signal", avgP)
	}
}

func TestRecallPrecision(t *testing.T) {
	rel := map[int]bool{1: true, 2: true, 3: true, 4: true}
	r, p := RecallPrecision([]int{1, 2, 9}, rel)
	if math.Abs(r-0.5) > 1e-12 || math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("r=%v p=%v", r, p)
	}
	r, p = RecallPrecision(nil, rel)
	if r != 0 || p != 0 {
		t.Fatal("empty retrieval should be 0,0")
	}
	r, p = RecallPrecision([]int{1}, map[int]bool{})
	if r != 0 || p != 0 {
		t.Fatal("empty relevance should be 0,0")
	}
}

func TestBestPeers(t *testing.T) {
	col := testCollection(t)
	c := Distribute(col, 30, Weibull, 5)
	q := col.Queries[0]
	b1 := BestPeers(c, q.Relevant, 1)
	bAll := BestPeers(c, q.Relevant, len(q.Relevant))
	if b1 < 1 || bAll < b1 {
		t.Fatalf("BestPeers monotonicity: k=1 -> %d, k=all -> %d", b1, bAll)
	}
	// Greedy never needs more peers than hold relevant docs.
	holders := map[int]bool{}
	for d := range q.Relevant {
		holders[int(c.PeerOf[d])] = true
	}
	if bAll > len(holders) {
		t.Fatalf("BestPeers %d > holders %d", bAll, len(holders))
	}
}

// The Figure 6a headline: TFxIPF with adaptive stopping tracks the
// centralized TFxIDF baseline.
func TestIPFTracksIDF(t *testing.T) {
	col := testCollection(t)
	c := Distribute(col, 40, Weibull, 6)
	pts := Evaluate(c, []int{10, 20, 40})
	for _, pt := range pts {
		if pt.RecallIDF <= 0 {
			t.Fatalf("baseline broken at k=%d: %+v", pt.K, pt)
		}
		// PlanetP must achieve at least ~70% of the baseline's recall
		// (the paper shows near-parity; we allow slack for the small
		// scaled collection).
		if pt.RecallIPF < 0.7*pt.RecallIDF {
			t.Fatalf("k=%d: IPF recall %.3f far below IDF %.3f",
				pt.K, pt.RecallIPF, pt.RecallIDF)
		}
		if pt.PeersIPF <= 0 || pt.PeersBest <= 0 {
			t.Fatalf("peer accounting: %+v", pt)
		}
		// The oracle contacts no more peers than PlanetP.
		if pt.PeersBest > pt.PeersIPF+1e-9 {
			t.Fatalf("k=%d: Best %.1f > IPF %.1f", pt.K, pt.PeersBest, pt.PeersIPF)
		}
	}
	// Peers contacted must grow with k (Figure 6c shape).
	if pts[len(pts)-1].PeersIPF < pts[0].PeersIPF {
		t.Fatalf("peers contacted should grow with k: %+v", pts)
	}
	if pts[0].String() == "" {
		t.Fatal("empty row")
	}
}

func TestRecallVsSizeStaysFlat(t *testing.T) {
	col := testCollection(t)
	pts := RecallVsSize(col, []int{20, 60, 120}, 20, Weibull, 7, nil)
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	for _, pt := range pts {
		if pt.RecallIPF <= 0 {
			t.Fatalf("zero recall at %d peers", pt.Peers)
		}
	}
	// Figure 6b: recall roughly constant with community size. Allow a
	// generous band on the small test collection.
	first, last := pts[0].RecallIPF, pts[len(pts)-1].RecallIPF
	if last < first*0.6 {
		t.Fatalf("recall collapsed with community size: %.3f -> %.3f", first, last)
	}
}

// Sanity: running PlanetP's search stack end-to-end over the community
// returns only docs that actually contain query terms.
func TestEndToEndSoundness(t *testing.T) {
	col := testCollection(t)
	c := Distribute(col, 25, Weibull, 8)
	q := col.Queries[1]
	docs, _ := search.Ranked(c, c, q.Terms, search.Options{K: 15})
	for _, d := range docs {
		idx, ok := ParseDocKey(d.Key)
		if !ok {
			t.Fatalf("bad key %q", d.Key)
		}
		found := false
		for _, term := range q.Terms {
			if col.Docs[idx].Freqs[term] > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("retrieved doc %d has no query terms", idx)
		}
	}
}
