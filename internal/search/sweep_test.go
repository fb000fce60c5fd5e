package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"planetp/internal/bloom"
	"planetp/internal/directory"
)

// --- the two-pass reference ---
//
// refQuery is the term-major engine the one-sweep engine replaced, kept
// verbatim as the differential reference: equation 1 and equation 3 each
// probe every (peer, term) on their own, through ContainsDigest when the
// view has it and Contains otherwise.

// digestProber is a view that also probes one (peer, digest) at a time.
type digestProber interface {
	ContainsDigest(id directory.PeerID, d bloom.Digest) bool
}

type refQuery struct {
	view    FilterView
	dv      digestProber
	terms   []string
	digests []bloom.Digest
}

func newRefQuery(view FilterView, terms []string) refQuery {
	q := refQuery{view: view, terms: terms}
	if dv, ok := view.(digestProber); ok {
		q.dv = dv
		q.digests = bloom.MakeDigests(terms)
	}
	return q
}

func (q *refQuery) contains(id directory.PeerID, i int) bool {
	if q.dv != nil {
		return q.dv.ContainsDigest(id, q.digests[i])
	}
	return q.view.Contains(id, q.terms[i])
}

func (q *refQuery) ipf(peers []directory.PeerID) map[string]float64 {
	n := float64(len(peers))
	out := make(map[string]float64, len(q.terms))
	for i, t := range q.terms {
		nt := 0
		for _, id := range peers {
			if q.contains(id, i) {
				nt++
			}
		}
		if nt == 0 {
			out[t] = 0
			continue
		}
		out[t] = math.Log(1 + n/float64(nt))
	}
	return out
}

func (q *refQuery) rank(peers []directory.PeerID, ipf map[string]float64) []PeerRank {
	type termWeight struct {
		idx int
		w   float64
	}
	tw := make([]termWeight, 0, len(q.terms))
	for i, t := range q.terms {
		if w := ipf[t]; w > 0 {
			tw = append(tw, termWeight{idx: i, w: w})
		}
	}
	out := make([]PeerRank, 0, len(peers))
	for _, id := range peers {
		score := 0.0
		for _, t := range tw {
			if q.contains(id, t.idx) {
				score += t.w
			}
		}
		if score > 0 {
			out = append(out, PeerRank{Peer: id, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

func (q *refQuery) candidates(peers []directory.PeerID) []directory.PeerID {
	out := make([]directory.PeerID, 0, len(peers))
	for _, id := range peers {
		all := true
		for i := range q.terms {
			if !q.contains(id, i) {
				all = false
				break
			}
		}
		if all {
			out = append(out, id)
		}
	}
	return out
}

// --- views over real Bloom filters, one per probing capability ---

// plainFilters offers Contains only. A nil filter is a peer the view lists
// but cannot probe (filterless in the directory, or dropped mid-query).
type plainFilters struct {
	filters []*bloom.Filter
	// probes counts Contains + ContainsDigest calls, sweeps Sweep calls,
	// listed Peers calls.
	probes, sweeps, listed int
}

func (v *plainFilters) Peers() []directory.PeerID {
	v.listed++
	out := make([]directory.PeerID, len(v.filters))
	for i := range out {
		out[i] = directory.PeerID(i)
	}
	return out
}

func (v *plainFilters) Contains(id directory.PeerID, term string) bool {
	v.probes++
	f := v.filters[id]
	return f != nil && f.Contains(term)
}

// digestFilters adds a per-digest probe (what bench's tracedView has),
// which the engine does not use: it probes such a view through Contains.
type digestFilters struct{ *plainFilters }

func (v digestFilters) ContainsDigest(id directory.PeerID, d bloom.Digest) bool {
	v.probes++
	f := v.filters[id]
	return f != nil && f.ContainsDigest(d)
}

// sweepFilters adds the whole-view sweep (what core.dirView has).
type sweepFilters struct{ digestFilters }

func (v sweepFilters) Sweep(ds []bloom.Digest) ([]directory.PeerID, []bool) {
	v.sweeps++
	peers := make([]directory.PeerID, len(v.filters))
	hits := make([]bool, len(peers)*len(ds))
	for p, f := range v.filters {
		peers[p] = directory.PeerID(p)
		for i, d := range ds {
			hits[p*len(ds)+i] = f != nil && f.ContainsDigest(d)
		}
	}
	return peers, hits
}

// sweepVocab is the fixture's vocabulary; "absent-*" terms are in no
// filter.
func sweepVocab(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%03d", i)
	}
	return out
}

// seededFilters builds n small filters (small enough that false positives
// occur, so rows differ from the inserted sets), each holding a random
// 10-70 % of the vocabulary; every holeEvery-th peer has no filter.
func seededFilters(seed int64, n, holeEvery int) *plainFilters {
	rng := rand.New(rand.NewSource(seed))
	vocab := sweepVocab(60)
	v := &plainFilters{filters: make([]*bloom.Filter, n)}
	for p := range v.filters {
		if holeEvery > 0 && p%holeEvery == holeEvery-1 {
			continue
		}
		f := bloom.New(512, 2)
		share := 0.1 + 0.6*rng.Float64()
		for _, w := range vocab {
			if rng.Float64() < share {
				f.Insert(w)
			}
		}
		v.filters[p] = f
	}
	return v
}

// sweepQueries are the term sequences the differential covers.
func sweepQueries() map[string][]string {
	vocab := sweepVocab(60)
	return map[string][]string{
		"one term":        {vocab[3]},
		"three terms":     {vocab[1], vocab[17], vocab[42]},
		"twenty terms":    vocab[20:40],
		"duplicates":      {vocab[5], vocab[5], vocab[9]},
		"one term absent": {vocab[2], "absent-a", vocab[30]},
		"all absent":      {"absent-a", "absent-b"},
		"absent repeated": {"absent-a", vocab[7], "absent-a"},
	}
}

// sweepViews wraps one filter set in every view shape the engine probes
// through, MergedView over each included.
func sweepViews(base *plainFilters) map[string]FilterView {
	views := make(map[string]FilterView)
	for name, v := range map[string]FilterView{
		"sweep":  sweepFilters{digestFilters{base}},
		"digest": digestFilters{base},
		"plain":  base,
	} {
		views[name] = v
		views["merged3/"+name] = NewMergedView(v, 3)
		views["merged1/"+name] = NewMergedView(v, 1)
	}
	return views
}

// TestSweepMatchesTwoPassReference: the one-sweep engine returns, float
// for float, what the two term-major passes it replaced return — IPF map,
// peer ranking, exhaustive candidate set — for every view capability,
// MergedView over each, peers without filters, absent and duplicate
// terms, 1 and 20 terms, and an empty community.
func TestSweepMatchesTwoPassReference(t *testing.T) {
	communities := map[string]*plainFilters{
		"50 peers":            seededFilters(1, 50, 0),
		"37 peers with holes": seededFilters(2, 37, 5),
		"1 peer":              seededFilters(3, 1, 0),
		"0 peers":             seededFilters(4, 0, 0),
	}
	for cname, base := range communities {
		for vname, view := range sweepViews(base) {
			for qname, terms := range sweepQueries() {
				name := cname + "/" + vname + "/" + qname
				ref := newRefQuery(view, terms)
				peers := view.Peers()
				wantIPF := ref.ipf(peers)
				wantRanks := ref.rank(peers, wantIPF)
				wantCand := ref.candidates(peers)

				gotIPF := IPF(view, terms)
				// reflect.DeepEqual compares floats with ==.
				if !reflect.DeepEqual(gotIPF, wantIPF) {
					t.Errorf("%s: IPF = %v, want %v", name, gotIPF, wantIPF)
				}
				if got := RankPeers(view, terms, wantIPF); !reflect.DeepEqual(got, wantRanks) {
					t.Errorf("%s: RankPeers = %v, want %v", name, got, wantRanks)
				}
				q := newQuery(view, terms)
				// The sweep's (N, N_t) — what a ranked query carries — give
				// the same IPF at whichever end computes it.
				if e := q.ipfRanked(); !reflect.DeepEqual(q.ipf(e.nt, e.peers), wantIPF) || !reflect.DeepEqual(e.ranks, wantRanks) {
					t.Errorf("%s: ipfRanked = %v, %v, want %v, %v", name, q.ipf(e.nt, e.peers), e.ranks, wantIPF, wantRanks)
				}
				if got := q.candidates(q.sweep()); !reflect.DeepEqual(got, wantCand) {
					t.Errorf("%s: candidates = %v, want %v", name, got, wantCand)
				}
			}
		}
	}
}

// TestSweepFixtureIsNotTrivial guards the differential's fixture: the
// cases it exists for (zero-IPF terms, ties, false positives, partial
// candidate sets) must actually occur in it.
func TestSweepFixtureIsNotTrivial(t *testing.T) {
	view := sweepFilters{digestFilters{seededFilters(1, 50, 0)}}
	q := sweepQueries()
	if ipf := IPF(view, q["one term absent"]); ipf["absent-a"] != 0 || ipf[q["one term absent"][0]] <= 0 {
		t.Fatalf("absent/present IPF = %v", ipf)
	}
	ranks := RankPeers(view, q["three terms"], IPF(view, q["three terms"]))
	ties := 0
	for i := 1; i < len(ranks); i++ {
		if ranks[i].Score == ranks[i-1].Score {
			ties++
		}
	}
	if len(ranks) < 10 || len(ranks) == 50 || ties == 0 {
		t.Fatalf("three-term ranking has %d of 50 peers and %d ties; want a partial ranking with ties", len(ranks), ties)
	}
	nq := newQuery(view, q["duplicates"])
	if c := nq.candidates(nq.sweep()); len(c) == 0 || len(c) == 50 {
		t.Fatalf("duplicates query has %d of 50 candidates; want a partial set", len(c))
	}
}

// recordingFetcher answers every contact with no documents and records
// the conjunctive contacts Exhaustive makes.
type recordingFetcher struct{ all []directory.PeerID }

func (f *recordingFetcher) QueryPeer(directory.PeerID, []string) ([]DocResult, error) {
	return nil, nil
}

func (f *recordingFetcher) QueryPeerAll(id directory.PeerID, _ []string) ([]DocResult, error) {
	f.all = append(f.all, id)
	return nil, nil
}

// TestExhaustiveCandidatesMatchReference: Exhaustive contacts exactly the
// reference's candidate peers, in the view's order.
func TestExhaustiveCandidatesMatchReference(t *testing.T) {
	base := seededFilters(5, 40, 7)
	for vname, view := range sweepViews(base) {
		for qname, terms := range sweepQueries() {
			ref := newRefQuery(view, terms)
			want := ref.candidates(view.Peers())
			fetch := &recordingFetcher{}
			_, st := Exhaustive(view, fetch, terms, Options{})
			if st.PeersRanked != len(want) || !reflect.DeepEqual(append([]directory.PeerID{}, fetch.all...), want) {
				t.Errorf("%s/%s: Exhaustive contacted %v, want %v", vname, qname, fetch.all, want)
			}
		}
	}
}

// TestRankedSweepsOncePerUncachedQuery is the count the sweep is about: a
// Ranked visits the view once — one Sweep call, or (a view without it)
// one Peers call and each (peer, term) once.
func TestRankedSweepsOncePerUncachedQuery(t *testing.T) {
	terms := sweepQueries()["three terms"]
	fetch := &recordingFetcher{}
	for _, tc := range []struct {
		name                 string
		view                 func(*plainFilters) FilterView
		sweeps, each, listed int // each: per peer
	}{
		{"sweep", func(b *plainFilters) FilterView { return sweepFilters{digestFilters{b}} }, 1, 0, 0},
		{"digest", func(b *plainFilters) FilterView { return digestFilters{b} }, 0, len(terms), 1},
		{"plain", func(b *plainFilters) FilterView { return b }, 0, len(terms), 1},
	} {
		base := seededFilters(6, 30, 0)
		view := tc.view(base)
		Ranked(view, fetch, terms, Options{K: 5})
		if base.sweeps != tc.sweeps || base.probes != 30*tc.each || base.listed != tc.listed {
			t.Errorf("%s: Ranked made %d sweeps, %d single probes, %d Peers calls; want %d, %d, %d",
				tc.name, base.sweeps, base.probes, base.listed, tc.sweeps, 30*tc.each, tc.listed)
		}
	}
}

// TestStopWindowUsesSweptPeerCount: equation 4's N is the candidate count
// the ranking was computed over.
func TestStopWindowUsesSweptPeerCount(t *testing.T) {
	const n = 700 // StopP(700, 1) = 4, StopP(0, 1) = 2
	vocab := sweepVocab(60)
	base := &plainFilters{filters: make([]*bloom.Filter, n)}
	for i := range base.filters {
		base.filters[i] = bloom.New(64, 2)
		base.filters[i].Insert(vocab[0])
	}
	fetch := &oneDocFetcher{}
	_, st := Ranked(sweepFilters{digestFilters{base}}, fetch, vocab[:1], Options{K: 1})
	// Peer 0 supplies the one document; then StopP(700, 1) = 4
	// non-contributing peers end the search.
	if !st.StoppedEarly || st.PeersContacted != 1+StopP(n, 1) {
		t.Fatalf("contacted %d peers (stopped early %v), want %d", st.PeersContacted, st.StoppedEarly, 1+StopP(n, 1))
	}
}

// oneDocFetcher returns the same single document from every peer, so only
// the first contact contributes.
type oneDocFetcher struct{}

func (f *oneDocFetcher) QueryPeer(id directory.PeerID, terms []string) ([]DocResult, error) {
	return []DocResult{{Peer: id, Key: "the-doc", TermFreqs: map[string]int{terms[0]: 1}, DocLen: 4}}, nil
}

func (f *oneDocFetcher) QueryPeerAll(id directory.PeerID, terms []string) ([]DocResult, error) {
	return f.QueryPeer(id, terms)
}
