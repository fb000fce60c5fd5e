package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// scale sizes a run. full is the benchmark; smoke shrinks every
// dimension so the tier-1 test exercises each workload in well under a
// second.
type scale struct {
	docs       int // preloaded corpus size
	vocab      int // corpus vocabulary (word ranks 0..vocab-1)
	fanWords   int // search_fanout draws query words from the top fanWords
	hotQueries int // search_hot query population
	markers    int // preloaded docs carrying a unique marker word
	batch      int // docs per publish-batch request
	docWords   int // Zipf-sampled words per document

	virtualPeers int // rank_wide directory size (excluding the node)
	filterWords  int // words per virtual peer's Bloom filter
	rankVocab    int // rank_wide vocabulary

	simPeers int // gossip_sim community size
	simPairs int // LAN+MIX propagation pairs per run

	gossip   time.Duration // base gossip interval of live nodes
	warm     time.Duration // closed-loop warm-up before the measured window
	window   time.Duration // one throughput window of the per-layer rates
	refEvery time.Duration // how often the reference kernels are timed (refspeed.go)
	setups   int           // cluster set-ups per run (median reported)
	minTail  int           // fewest samples a p99 may be computed from

	rpcProbes int // bench-owned RPCs the traced run times after the load
	hashOps   int // requests of client 0's stream that ops_sha256 covers
}

var fullScale = scale{
	docs: 2048, vocab: 20000, fanWords: 2000, hotQueries: 250, markers: 32,
	batch: 16, docWords: 24,
	virtualPeers: 1023, filterWords: 1000, rankVocab: 200000,
	simPeers: 1000, simPairs: 20,
	gossip: 250 * time.Millisecond, warm: time.Second, window: time.Second, refEvery: 100 * time.Millisecond,
	setups: 3, minTail: 1000, rpcProbes: 1000, hashOps: 10000,
}

var smokeScale = scale{
	docs: 64, vocab: 2000, fanWords: 200, hotQueries: 100, markers: 4,
	batch: 16, docWords: 24,
	virtualPeers: 128, filterWords: 100, rankVocab: 20000,
	simPeers: 50, simPairs: 2,
	gossip: 50 * time.Millisecond, warm: 100 * time.Millisecond, window: 300 * time.Millisecond, refEvery: 20 * time.Millisecond,
	setups: 1, minTail: 1, rpcProbes: 50, hashOps: 200,
}

const zipfS = 1.1

// word renders vocabulary rank i (rank 0 = most popular). The form
// survives the node's text pipeline unchanged (no stop word, no stem
// suffix), which checkVocabulary asserts before any load is sent.
func word(i int32) string { return "w" + pad(int(i), 5) }

func pad(n, width int) string {
	s := strconv.Itoa(n)
	for len(s) < width {
		s = "0" + s
	}
	return s
}

// subSeed derives an independent stream seed from the run seed, a salt
// naming the stream's purpose, and an index (client number, sub-run).
func subSeed(seed int64, salt string, i int) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, salt, i)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return v
}

// genDoc is one generated document: the XML the node receives, the id
// the node must answer with, and the word ranks the harness remembers it
// by (its own copy of the corpus, used to check search hits).
type genDoc struct {
	xml   string
	key   string
	words []int32
}

// docKey is the harness's own rendering of the node's content-hash id.
func docKey(xml string) string {
	sum := sha256.Sum256([]byte(xml))
	return hex.EncodeToString(sum[:16])
}

// makeDoc renders a document from a unique id token and word ranks.
func makeDoc(id string, words []int32) genDoc {
	b := make([]byte, 0, 16+8*len(words))
	b = append(b, "<doc>"...)
	b = append(b, id...)
	for _, w := range words {
		b = append(b, ' ')
		b = append(b, word(w)...)
	}
	b = append(b, "</doc>"...)
	xml := string(b)
	return genDoc{xml: xml, key: docKey(xml), words: words}
}

// docSampler draws document bodies: docWords Zipf(1.1) words each.
type docSampler struct {
	zipf *rand.Zipf
	n    int
}

func newDocSampler(rng *rand.Rand, sc scale) docSampler {
	return docSampler{zipf: rand.NewZipf(rng, zipfS, 1, uint64(sc.vocab-1)), n: sc.docWords}
}

func (s docSampler) words() []int32 {
	out := make([]int32, s.n)
	for i := range out {
		out[i] = int32(s.zipf.Uint64())
	}
	return out
}

// preloadDocs is the seeded corpus every live cluster starts from. The
// first sc.markers documents each carry one word no sampler ever draws
// (rank vocab+i), so the marker gate can find each of them alone.
func preloadDocs(seed int64, sc scale) []genDoc {
	rng := rand.New(rand.NewSource(subSeed(seed, "corpus", 0)))
	ds := newDocSampler(rng, sc)
	out := make([]genDoc, sc.docs)
	for i := range out {
		w := ds.words()
		if i < sc.markers {
			w = append(w, int32(sc.vocab+i))
		}
		out[i] = makeDoc("p"+pad(i, 7), w)
	}
	return out
}

// corpus is the harness's own copy of what the cluster holds: document
// id -> word ranks. Clients add a batch before sending it, so a hit on a
// freshly published document is always checkable.
type corpus struct {
	mu   sync.RWMutex
	docs map[string][]int32
}

func newCorpus() *corpus { return &corpus{docs: make(map[string][]int32)} }

func (c *corpus) add(docs []genDoc) {
	c.mu.Lock()
	for _, d := range docs {
		c.docs[d.key] = d.words
	}
	c.mu.Unlock()
}

// hasAny reports whether document key is known and contains at least one
// of the query words.
func (c *corpus) hasAny(key string, query []int32) bool {
	c.mu.RLock()
	words, ok := c.docs[key]
	c.mu.RUnlock()
	if !ok {
		return false
	}
	for _, q := range query {
		for _, w := range words {
			if w == q {
				return true
			}
		}
	}
	return false
}

// op is one generated request, ready to send.
type op struct {
	publish bool
	query   []int32  // search: the query's word ranks
	text    string   // search: the query string
	docs    []genDoc // publish: the batch
	body    []byte   // JSON request body
}

func searchOp(query ...int32) op {
	q := make([]byte, 0, 24)
	for i, w := range query {
		if i > 0 {
			q = append(q, ' ')
		}
		q = append(q, word(w)...)
	}
	b := make([]byte, 0, 48)
	b = append(b, `{"query":"`...)
	b = append(b, q...)
	b = append(b, `","k":10}`...)
	return op{query: query, text: string(q), body: b}
}

func publishOp(docs []genDoc) op {
	b := make([]byte, 0, 256*len(docs))
	b = append(b, `{"xmls":[`...)
	for i, d := range docs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, d.xml...) // generated text needs no JSON escaping
		b = append(b, '"')
	}
	b = append(b, `]}`...)
	return op{publish: true, docs: docs, body: b}
}

// opGen is one client's request stream. Each client owns one, seeded
// from (-seed, workload, client index); the stream does not depend on
// timing, so equal seeds replay equal requests.
type opGen func() op

func clientRand(seed int64, workload string, client int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, "ops/"+workload, client)))
}

// fanoutGen: two words drawn uniformly from the fanWords most popular —
// fanWords² ordered pairs, far more than any cache in the node holds.
func fanoutGen(seed int64, sc scale, client int) opGen {
	rng := clientRand(seed, "search_fanout", client)
	return func() op {
		return searchOp(int32(rng.Intn(sc.fanWords)), int32(rng.Intn(sc.fanWords)))
	}
}

// hotQuery renders the query of popularity rank r: words r and r+1.
func hotQuery(r int32) op { return searchOp(r, r+1) }

// hotGen: query rank ~ Zipf(1.1) over hotQueries queries.
func hotGen(seed int64, sc scale, client int) opGen {
	rng := clientRand(seed, "search_hot", client)
	z := rand.NewZipf(rng, zipfS, 1, uint64(sc.hotQueries-1))
	return func() op { return hotQuery(int32(z.Uint64())) }
}

// batchSampler draws fresh publish batches; ids carry the client index
// and a sequence number so no two documents of a run are equal.
type batchSampler struct {
	ds     docSampler
	prefix string
	batch  int
	seq    int
}

func (b *batchSampler) next() op {
	docs := make([]genDoc, b.batch)
	for i := range docs {
		b.seq++
		docs[i] = makeDoc(b.prefix+pad(b.seq, 8), b.ds.words())
	}
	return publishOp(docs)
}

func publishGen(seed int64, sc scale, client int) opGen {
	rng := clientRand(seed, "publish_durable", client)
	bs := &batchSampler{ds: newDocSampler(rng, sc), prefix: "c" + strconv.Itoa(client) + "d", batch: sc.batch}
	return bs.next
}

// mixedPublishEvery makes every 20th op of mixed_rw a publish: the
// canonical check.sh bench write share of 5 %, on a fixed schedule so
// that the number of publishes in a window does not vary with the seed.
const mixedPublishEvery = 20

func mixedGen(seed int64, sc scale, client int) opGen {
	rng := clientRand(seed, "mixed_rw", client)
	z := rand.NewZipf(rng, zipfS, 1, uint64(sc.hotQueries-1))
	bs := &batchSampler{ds: newDocSampler(rng, sc), prefix: "c" + strconv.Itoa(client) + "d", batch: sc.batch}
	n := 0
	return func() op {
		if n++; n%mixedPublishEvery == 0 {
			return bs.next()
		}
		return hotQuery(int32(z.Uint64()))
	}
}

// rankWideGen: three words uniform over the rank_wide vocabulary.
func rankWideGen(seed int64, sc scale, client int) opGen {
	rng := clientRand(seed, "rank_wide", client)
	return func() op {
		return searchOp(int32(rng.Intn(sc.rankVocab)), int32(rng.Intn(sc.rankVocab)), int32(rng.Intn(sc.rankVocab)))
	}
}

// opsSHA256 fingerprints the first n requests of client 0's stream.
func opsSHA256(g opGen, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		o := g()
		h.Write(o.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
