package gossip

import (
	"errors"
	"testing"

	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// exchEnv is a fakeEnv whose transport also answers peer-exchange pulls,
// like the live transport and the simulator do.
type exchEnv struct {
	*fakeEnv
	sample []directory.Record
	calls  int
	maxes  []int
	err    error
}

func (e *exchEnv) ExchangePeers(to directory.PeerID, max int) ([]directory.Record, error) {
	e.calls++
	e.maxes = append(e.maxes, max)
	if e.err != nil {
		return nil, e.err
	}
	if len(e.sample) > max {
		return e.sample[:max], nil
	}
	return e.sample, nil
}

func newExchNode(t *testing.T, cfg Config, sample []directory.Record) (*Node, *exchEnv) {
	t.Helper()
	f := newFakeNet(1)
	env := &exchEnv{fakeEnv: &fakeEnv{net: f, id: 0}, sample: sample}
	rec := directory.Record{ID: 0, Class: directory.Fast, DiffSize: 100, PayloadSize: 1000}
	cfg.Metrics = metrics.NewRegistry()
	f.regs[0] = cfg.Metrics
	n := NewNode(rec, directory.New(0, 16), cfg, env)
	f.nodes[0] = n
	// The joiner starts knowing exactly one member, like a node booted
	// with a single seed address.
	n.Directory().Upsert(directory.Record{ID: 1, Ver: directory.Version{Epoch: 1}, Class: directory.Fast})
	return n, env
}

func sampleRecs(ids ...directory.PeerID) []directory.Record {
	recs := make([]directory.Record, 0, len(ids))
	for _, id := range ids {
		recs = append(recs, directory.Record{ID: id, Ver: directory.Version{Epoch: 1}})
	}
	return recs
}

// TestDiscoverPullsUntilMin: a node below DiscoverMin pulls a peer-
// exchange sample each round and stops as soon as its on-line view
// reaches the threshold.
func TestDiscoverPullsUntilMin(t *testing.T) {
	n, env := newExchNode(t, Config{DiscoverMin: 5}, sampleRecs(2, 3, 4))
	n.Tick()
	if env.calls != 1 {
		t.Fatalf("exchange calls = %d, want 1", env.calls)
	}
	if env.maxes[0] != exchangeMax {
		t.Errorf("requested sample size %d, want %d", env.maxes[0], exchangeMax)
	}
	if got := n.Directory().NumOnline(); got != 5 {
		t.Fatalf("NumOnline = %d after discovery, want 5", got)
	}
	if ex, recs := env.net.count(0, "gossip_exchanges_total"), env.net.count(0, "gossip_exchange_records_total"); ex != 1 || recs != 3 {
		t.Errorf("%d exchanges / %d records, want 1 / 3", ex, recs)
	}
	// At the threshold the discovery loop goes quiet.
	n.Tick()
	if env.calls != 1 {
		t.Errorf("exchange calls = %d after reaching min, want still 1", env.calls)
	}
}

// TestDiscoverOffByDefault: without DiscoverMin the node never pulls,
// even though the env supports it.
func TestDiscoverOffByDefault(t *testing.T) {
	n, env := newExchNode(t, Config{}, sampleRecs(2, 3))
	for i := 0; i < 5; i++ {
		n.Tick()
	}
	if env.calls != 0 {
		t.Fatalf("exchange calls = %d, want 0", env.calls)
	}
}

// TestDiscoverNeedsCapableEnv: an env without peer exchange (e.g. a
// transport predating the RPC) degrades to plain gossip, no panic.
func TestDiscoverNeedsCapableEnv(t *testing.T) {
	f := newFakeNet(1)
	n := f.addNode(0, 8, Config{DiscoverMin: 5})
	n.Directory().Upsert(directory.Record{ID: 1, Ver: directory.Version{Epoch: 1}})
	n.Tick()
	if got := f.count(0, "gossip_exchanges_total"); got != 0 {
		t.Fatalf("%d exchanges, want none", got)
	}
}

// TestDiscoverFailureCountsAsSuspicion: failed exchange pulls feed the
// same suspicion streak as failed gossip sends. Against a dead peer the
// round's regular send and its exchange pull each add a strike, so the
// default threshold of two is reached within a single round instead of
// two — the exchange failure must not be swallowed.
func TestDiscoverFailureCountsAsSuspicion(t *testing.T) {
	n, env := newExchNode(t, Config{DiscoverMin: 5}, nil)
	env.err = errors.New("refused")
	env.net.offline[1] = true
	n.Tick()
	if env.calls != 1 {
		t.Fatalf("exchange calls = %d, want 1", env.calls)
	}
	if got := n.Directory().NumOnline(); got != 1 {
		t.Fatalf("NumOnline = %d after one round, want 1 (send + exchange strikes)", got)
	}
}
