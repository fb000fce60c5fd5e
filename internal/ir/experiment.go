package ir

import (
	"fmt"

	"planetp/internal/collection"
	"planetp/internal/directory"
	"planetp/internal/metrics"
	"planetp/internal/search"
)

// RPPoint is one k-value of Figure 6a/6c: recall, precision, and peers
// contacted for the TFxIDF baseline, PlanetP's TFxIPF with the adaptive
// stop, and the Best oracle, averaged over all queries.
type RPPoint struct {
	K int
	// TFxIDF baseline (centralized global index).
	RecallIDF, PrecisionIDF float64
	// PlanetP TFxIPF + adaptive stopping.
	RecallIPF, PrecisionIPF float64
	// Peers contacted.
	PeersIDF, PeersIPF, PeersBest float64
}

// Evaluate runs every query in the community's collection at each k,
// averaging recall/precision/peers-contacted across queries (Figure 6a
// and 6c for one community).
func Evaluate(c *Community, ks []int) []RPPoint {
	g := BuildGlobal(c.Col)
	out := make([]RPPoint, 0, len(ks))
	for _, k := range ks {
		var pt RPPoint
		pt.K = k
		for qi := range c.Col.Queries {
			q := &c.Col.Queries[qi]

			// TFxIDF: global top-k, contacting exactly the owners.
			idfDocs := g.TopK(q.Terms, k)
			r, p := RecallPrecision(idfDocs, q.Relevant)
			pt.RecallIDF += r
			pt.PrecisionIDF += p
			owners := make(map[directory.PeerID]bool)
			for _, d := range idfDocs {
				owners[c.PeerOf[d]] = true
			}
			pt.PeersIDF += float64(len(owners))

			// PlanetP TFxIPF with adaptive stopping.
			docs, st := search.Ranked(c, c, q.Terms, search.Options{K: k, Metrics: c.Metrics})
			retrieved := make([]int, 0, len(docs))
			for _, d := range docs {
				if idx, ok := ParseDocKey(d.Key); ok {
					retrieved = append(retrieved, idx)
				}
			}
			r, p = RecallPrecision(retrieved, q.Relevant)
			pt.RecallIPF += r
			pt.PrecisionIPF += p
			pt.PeersIPF += float64(st.PeersContacted)

			// Oracle.
			pt.PeersBest += float64(BestPeers(c, q.Relevant, k))
		}
		nq := float64(len(c.Col.Queries))
		pt.RecallIDF /= nq
		pt.PrecisionIDF /= nq
		pt.RecallIPF /= nq
		pt.PrecisionIPF /= nq
		pt.PeersIDF /= nq
		pt.PeersIPF /= nq
		pt.PeersBest /= nq
		out = append(out, pt)
	}
	return out
}

// String renders the point as a report row.
func (p RPPoint) String() string {
	return fmt.Sprintf("k=%-4d R(IDF)=%.3f P(IDF)=%.3f | R(IPF)=%.3f P(IPF)=%.3f | peers IDF=%.1f IPF=%.1f best=%.1f",
		p.K, p.RecallIDF, p.PrecisionIDF, p.RecallIPF, p.PrecisionIPF,
		p.PeersIDF, p.PeersIPF, p.PeersBest)
}

// SizePoint is one x-value of Figure 6b: PlanetP's recall at fixed k as
// the community grows.
type SizePoint struct {
	Peers     int
	RecallIPF float64
	RecallIDF float64
}

// RecallVsSize distributes the collection over increasing community sizes
// and measures recall at fixed k (Figure 6b). reg, if non-nil, aggregates
// search counters across every community size.
func RecallVsSize(col *collection.Collection, sizes []int, k int, dist Distribution, seed int64, reg *metrics.Registry) []SizePoint {
	out := make([]SizePoint, 0, len(sizes))
	g := BuildGlobal(col)
	for _, n := range sizes {
		c := Distribute(col, n, dist, seed+int64(n))
		c.Metrics = reg
		var pt SizePoint
		pt.Peers = n
		for qi := range col.Queries {
			q := &col.Queries[qi]
			docs, _ := search.Ranked(c, c, q.Terms, search.Options{K: k, Metrics: c.Metrics})
			retrieved := make([]int, 0, len(docs))
			for _, d := range docs {
				if idx, ok := ParseDocKey(d.Key); ok {
					retrieved = append(retrieved, idx)
				}
			}
			r, _ := RecallPrecision(retrieved, q.Relevant)
			pt.RecallIPF += r
			idfDocs := g.TopK(q.Terms, k)
			ri, _ := RecallPrecision(idfDocs, q.Relevant)
			pt.RecallIDF += ri
		}
		nq := float64(len(col.Queries))
		pt.RecallIPF /= nq
		pt.RecallIDF /= nq
		out = append(out, pt)
	}
	return out
}
