package gossip

import (
	"math/rand"
	"testing"

	"planetp/internal/directory"
)

// TestMaxPullBatchChunks verifies that a node with a pull cap acquires a
// large directory in pieces across successive anti-entropy exchanges.
func TestMaxPullBatchChunks(t *testing.T) {
	f := newFakeNet(20)
	full := f.addNode(0, 64, Config{})
	// The full node knows 40 peers.
	for i := directory.PeerID(2); i < 42; i++ {
		full.Directory().Upsert(directory.Record{
			ID: i, Ver: directory.Version{Epoch: 1}, PayloadSize: 100,
		})
	}
	limited := f.addNode(1, 64, Config{MaxPullBatch: 10})
	limited.Directory().Upsert(full.SelfRecord())

	// One exchange: at most 10 new records (plus the ones it had).
	before := limited.Directory().NumKnown()
	limited.Receive(0, summaryOf(full))
	after := limited.Directory().NumKnown()
	if after-before > 10 {
		t.Fatalf("single exchange pulled %d records, cap is 10", after-before)
	}
	if after == before {
		t.Fatal("nothing pulled at all")
	}
	// Enough exchanges converge completely (limited also knows itself,
	// which full does not).
	want := full.Directory().NumKnown() + 1
	for i := 0; i < 10 && limited.Directory().NumKnown() < want; i++ {
		limited.Receive(0, summaryOf(full))
	}
	if got := limited.Directory().NumKnown(); got != want {
		t.Fatalf("chunked pulls never converged: %d vs %d", got, want)
	}
}

// Receive must be total: arbitrary (adversarial or corrupt) messages must
// never panic or corrupt the node.
func TestReceiveArbitraryMessagesNoPanic(t *testing.T) {
	f := newFakeNet(30)
	n := f.addNode(0, 16, Config{})
	f.addNode(1, 16, Config{})
	f.connect()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		m := &Message{
			Type: MsgType(rng.Intn(8)), // includes invalid types
			From: directory.PeerID(rng.Intn(20) - 2),
		}
		if rng.Intn(2) == 0 {
			for i := 0; i < rng.Intn(4); i++ {
				m.Updates = append(m.Updates, directory.Record{
					ID:          directory.PeerID(rng.Intn(40) - 4),
					Ver:         directory.Version{Epoch: uint32(rng.Intn(3)), Seq: uint32(rng.Intn(3))},
					PayloadSize: int32(rng.Intn(1000) - 100),
					DiffSize:    int32(rng.Intn(1000) - 100),
				})
			}
		}
		if rng.Intn(2) == 0 {
			k := rng.Intn(5)
			for i := 0; i < k; i++ {
				m.Acked = append(m.Acked, RumorID{
					Peer: directory.PeerID(rng.Intn(20) - 2),
					Ver:  directory.Version{Epoch: uint32(rng.Intn(3))},
				})
			}
			// Known deliberately mismatched in length sometimes.
			for i := 0; i < rng.Intn(7); i++ {
				m.Known = append(m.Known, rng.Intn(2) == 0)
			}
		}
		if rng.Intn(2) == 0 {
			for i := 0; i < rng.Intn(4); i++ {
				m.Recent = append(m.Recent, RumorID{
					Peer: directory.PeerID(rng.Intn(40) - 4),
					Ver:  directory.Version{Epoch: uint32(rng.Intn(4)), Seq: uint32(rng.Intn(4))},
				})
			}
		}
		if rng.Intn(2) == 0 {
			for i := 0; i < rng.Intn(4); i++ {
				m.Need = append(m.Need, directory.NeedEntry{
					ID: directory.PeerID(rng.Intn(40) - 4),
				})
			}
		}
		if rng.Intn(3) == 0 {
			// Short or oversized summaries relative to capacity.
			sz := rng.Intn(40)
			m.Summary = make([]directory.Version, sz)
			for i := range m.Summary {
				m.Summary[i] = directory.Version{Epoch: uint32(rng.Intn(3)), Seq: uint32(rng.Intn(3))}
			}
			m.NumKnown = rng.Intn(50)
			m.Digest = rng.Uint64()
		}
		n.Receive(directory.PeerID(rng.Intn(6)-1), m)
	}
	// The node must still believe in itself.
	rec, ok := n.Directory().Get(0)
	if !ok || rec.Ver.Epoch != 1 {
		t.Fatalf("self record corrupted: %+v %v", rec, ok)
	}
}

// WireSize must be total and non-negative on arbitrary messages.
func TestWireSizeTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := DefaultSizes()
	for trial := 0; trial < 2000; trial++ {
		m := &Message{
			Type:     MsgType(rng.Intn(10)),
			NumKnown: rng.Intn(10000) - 100,
		}
		for i := 0; i < rng.Intn(5); i++ {
			m.Updates = append(m.Updates, directory.Record{
				DiffSize: int32(rng.Intn(100000)), PayloadSize: int32(rng.Intn(100000)),
			})
			m.AsDiff = append(m.AsDiff, rng.Intn(2) == 0)
		}
		if m.WireSize(sizes) < 0 {
			t.Fatalf("negative wire size for %+v", m)
		}
	}
}
