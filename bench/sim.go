package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"planetp/internal/gossip"
	"planetp/internal/gossipsim"
	"planetp/internal/simnet"
)

// gossip_sim runs the paper's Fig. 2 experiment on simnet — the same
// gossip.Node code the live node runs — and reports simulated
// quantities: they repeat exactly per seed. A run is a fixed number of
// LAN+MIX propagation pairs (scale.simPairs: about four seconds on two
// cores, and nothing a clock or a flag can change); pair 0 uses -seed
// itself, the rest derived sub-seeds, and every end-to-end value is the
// median over the pairs (tail_ref_ms: their 95th percentile).

// simPair is one LAN and one MIX propagation of a single filter update
// through a converged community.
type simPair struct {
	lan, mix gossipsim.PropagationPoint
}

// simHorizon is the simulated time after which gossipsim.Propagation
// gives up; a result at the horizon means some peer never learned.
const simHorizon = 6 * time.Hour

func simSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	out[0] = seed
	for i := 1; i < n; i++ {
		out[i] = subSeed(seed, "gossip_sim", i)
	}
	return out
}

// runSimPairs runs the pairs on min(GOMAXPROCS, 4) workers (each
// simulation is single-threaded and shares nothing). A cancelled ctx
// stops handing out pairs.
func runSimPairs(ctx context.Context, seeds []int64, peers int) ([]simPair, error) {
	out := make([]simPair, len(seeds))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < numClients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = simPair{
					lan: gossipsim.Propagation(gossipsim.LAN, peers, seeds[i]),
					mix: gossipsim.Propagation(gossipsim.MIX, peers, seeds[i]),
				}
			}
		}()
	}
feed:
	for i := range seeds {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, p := range out {
		for _, pt := range []gossipsim.PropagationPoint{p.lan, p.mix} {
			if pt.Time <= 0 || pt.Time >= simHorizon-time.Minute {
				return nil, fmt.Errorf("%w: %s n=%d seed %d did not reach all %d other peers (time %v)",
					errGate, pt.Scenario, peers, seeds[i], peers-1, pt.Time)
			}
		}
	}
	return out, nil
}

// buildSimCommunity builds the converged LAN community every
// propagation starts from, as gossipsim does; it is what gossip_sim
// times as set-up and holds resident for heap_mb.
func buildSimCommunity(peers int, seed int64) *simnet.Sim {
	sc := gossipsim.LAN
	s := simnet.New(peers, gossip.Config{BaseInterval: sc.Interval, MaxInterval: 2 * sc.Interval},
		simnet.DefaultParams(), seed)
	simnet.BuildCommunity(s, peers, sc.Profile, gossipsim.Diff1000Keys, gossipsim.Full20000Keys)
	return s
}

// runSim is the gossip_sim workload.
func runSim(ctx context.Context, seed int64, sc scale, trace bool) (*result, error) {
	res := &result{Workload: "gossip_sim", Seed: seed, Trace: trace}
	var setups []float64
	var community *simnet.Sim
	for i := 0; i < max(sc.setups, 1); i++ {
		start := time.Now()
		community = buildSimCommunity(sc.simPeers, seed)
		setups = append(setups, time.Since(start).Seconds())
	}
	heap := heapAfterGC()
	runtime.KeepAlive(community)

	seeds := simSeeds(seed, sc.simPairs)
	h := sha256.New()
	for _, s := range seeds {
		fmt.Fprintf(h, "LAN,MIX/%d/%d\n", sc.simPeers, s)
	}
	res.OpsSHA256 = hex.EncodeToString(h.Sum(nil))
	pairs, err := runSimPairs(ctx, seeds, sc.simPeers)
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(2 * len(pairs))

	var lanS, lanBytes []float64
	for _, p := range pairs {
		lanS = append(lanS, p.lan.Time.Seconds())
		lanBytes = append(lanBytes, float64(p.lan.Bytes)/float64(sc.simPeers))
	}
	informed := float64(sc.simPeers - 1)
	sort.Float64s(lanS)
	if !trace {
		res.set(endToEnd, values{
			"setup_s":           median(setups),
			"ops_per_ref_s":     informed / median(lanS),
			"tail_ref_ms":       percentile(lanS, tailPercentile) * 1e3,
			"wire_bytes_per_op": median(lanBytes),
			"heap_mb":           float64(heap.HeapAlloc) / 1e6,
		})
		return res, nil
	}
	// The per-layer rows are pair 0 alone: gossipsim.Propagation(LAN and
	// MIX, n, -seed), exact counts a protocol change must account for.
	res.set(perLayer, values{
		"gossip.sim_converge_lan_s":     pairs[0].lan.Time.Seconds(),
		"gossip.sim_bytes_per_peer_lan": float64(pairs[0].lan.Bytes) / float64(sc.simPeers),
		"gossip.sim_converge_mix_s":     pairs[0].mix.Time.Seconds(),
	})
	return res, nil
}
