package filtercache

import (
	"math"
	"slices"
	"sync/atomic"

	"planetp/internal/bloom"
	"planetp/internal/directory"
)

// index is the base tier: a position-major layout of the filters admitted
// at the last build, the bit-sliced signatures of BitFunnel (Goodwin et
// al., SIGIR 2017). rows[starts[p]:starts[p+1]] holds, ascending, the
// slots of the admitted peers whose filter sets bit p, so a digest's k
// positions name k short runs and the peers that may hold its key are
// their intersection: a term costs k run reads, not a probe per peer.
// Everything but the dead mask is immutable once built.
type index struct {
	ids    []directory.PeerID // ascending; slot s is ids[s]
	vers   []directory.Version
	nset   []uint32      // each slot's set bits: what masking it adds to the debt
	dead   []atomic.Bool // masked by Invalidate
	starts []uint32      // nbits+1 run boundaries, so at most MaxUint32 rows entries
	rows   []uint16
	nbits  uint64
	nhash  uint64

	bytes int64 // resident charge
	cost  int64 // what the build cost, in build units: set bits + nbits
	left  int   // rows with a payload the build left to the delta (geometry, budget, row cap)
	seen  int   // rows the build was offered
}

// noIndex is the base before any sweep has built one: it has no rows and
// was offered none, so the first sweep with a row builds.
var noIndex = &index{}

const (
	// maxRows is how many peers a uint16 slot can name.
	maxRows = 1<<16 - 1
	// rowBytes charges a slot's id, version, set-bit count and dead flag.
	rowBytes = 17
	// probeCost is one digest probe of a delta row in build units (a set
	// bit decoded twice and placed, or a run start laid out), as
	// BenchmarkIndexCostRatio measures them on rank_wide's filters: ≈ 57 ns
	// a (row, digest) of a delta-only sweep against ≈ 33 ns a unit of a
	// build, on a 2-CPU Xeon container.
	probeCost = 2
)

// seek returns the first slot at or after s whose id is not below id: a
// gallop from s, so a sweep of ascending ids walks the column once and a
// one-row probe costs O(log n).
func (x *index) seek(s int, id directory.PeerID) int {
	if s >= len(x.ids) || x.ids[s] >= id {
		return s
	}
	lo, step := s, 1 // ids[lo] < id
	for lo+step < len(x.ids) && x.ids[lo+step] < id {
		lo += step
		step *= 2
	}
	i, _ := slices.BinarySearch(x.ids[lo+1:min(lo+step, len(x.ids))], id)
	return lo + 1 + i
}

// probe sets hits[(rowOf[s]-1)*stride] for every slot s with rowOf[s] > 0
// whose filter may hold the key d summarizes: the slots on all k of its
// positions' runs.
func (x *index) probe(d bloom.Digest, rowOf []int32, hits []bool, stride int) {
	var runs [64][]uint16 // the wire format caps nhash at 64
	h := d.H1
	for t := range x.nhash {
		p := h % x.nbits
		runs[t] = x.rows[x.starts[p]:x.starts[p+1]]
		h += d.H2
	}
next:
	for _, s := range runs[0] {
		for t := 1; t < int(x.nhash); t++ {
			r := runs[t]
			for len(r) > 0 && r[0] < s {
				r = r[1:]
			}
			if runs[t] = r; len(r) == 0 {
				return
			}
			if r[0] != s {
				continue next
			}
		}
		if i := rowOf[s]; i > 0 {
			hits[int(i-1)*stride] = true
		}
	}
}

// baseBytes is the resident charge of a base over nbits positions holding
// rows filters with setBits set bits among them: run starts, struct and
// slice headers, a uint16 per set bit and rowBytes per row.
func baseBytes(nbits uint64, setBits int64, rows int) int64 {
	return 4*int64(nbits+1) + 128 + 2*setBits + rowBytes*int64(rows)
}

// decodePositions is bloom.DecodePositions, a variable so a test can look
// at the cache while a base is laid out.
var decodePositions = bloom.DecodePositions

// admit plans a base over one sweep's rows. It admits, in id order and
// while the base fits the budget, the rows whose header parses to the
// geometry most rows share (the first to reach the top count, on a tie) and
// whose payload has not failed at its version. It returns the base to lay
// out, charged from the headers, and the admitted rows' indexes in the
// input; none, and a base without rows (a memo of the attempt), when the
// run starts would outweigh the rows they index.
func (c *Cache) admit(ids []directory.PeerID, vers []directory.Version, payloads [][]byte) (*index, []int) {
	type geom struct{ nbits, nhash uint64 }
	var g geom
	votes := map[geom]int{}
	for _, p := range payloads {
		if nbits, nhash, _, ok := bloom.Header(p); ok {
			k := geom{nbits, nhash}
			if votes[k]++; votes[k] > votes[g] {
				g = k
			}
		}
	}
	x := &index{nbits: g.nbits, nhash: g.nhash, seen: len(ids)}
	var src []int
	setBits := int64(0)
	for i, p := range payloads {
		nbits, nhash, nset, ok := bloom.Header(p)
		if bad, failed := c.failed.Load(ids[i]); !ok || failed && bad == vers[i] {
			continue
		}
		if (geom{nbits, nhash}) != g || len(src) == maxRows || setBits+int64(nset) > math.MaxUint32 ||
			baseBytes(g.nbits, setBits+int64(nset), len(src)+1) > c.budget {
			x.left++
			continue
		}
		src = append(src, i)
		setBits += int64(nset)
	}
	x.cost = setBits + int64(g.nbits)
	if setBits < 2*int64(g.nbits+1) {
		return x, nil
	}
	x.bytes = baseBytes(g.nbits, setBits, len(src))
	return x, src
}

// lay decodes the rows admit admitted into x's runs: it counts each
// position's rows, then places slots in descending order, each at its
// run's end, so a run ascends. A row that fails to decode is remembered in
// failed and left out; a memo of the attempt is returned when too few
// rows are left.
func (c *Cache) lay(x *index, src []int, ids []directory.PeerID, vers []directory.Version, payloads [][]byte) *index {
	memo := &index{cost: x.cost, left: x.left, seen: x.seen}
	if src == nil {
		return memo
	}
	x.starts = make([]uint32, x.nbits+1)
	var pos []uint64
	kept, setBits := src[:0], 0
	for _, i := range src {
		var err error
		if pos, err = decodePositions(pos, payloads[i]); err != nil {
			c.failed.Store(ids[i], vers[i])
			continue
		}
		for _, p := range pos {
			x.starts[p]++
		}
		kept = append(kept, i)
		x.ids = append(x.ids, ids[i])
		x.vers = append(x.vers, vers[i])
		x.nset = append(x.nset, uint32(len(pos)))
		setBits += len(pos)
	}
	if setBits < 2*int(x.nbits+1) { // rows failed to decode
		return memo
	}
	for p := 1; p < len(x.starts); p++ {
		x.starts[p] += x.starts[p-1]
	}
	x.rows = make([]uint16, setBits)
	for s := len(kept) - 1; s >= 0; s-- {
		pos, _ = decodePositions(pos, payloads[kept[s]]) // decoded once already
		for _, p := range pos {
			x.starts[p]--
			x.rows[x.starts[p]] = uint16(s)
		}
	}
	x.dead = make([]atomic.Bool, len(kept))
	x.bytes = baseBytes(x.nbits, int64(setBits), len(kept))
	return x
}
