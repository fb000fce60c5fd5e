package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/replica"
	"planetp/internal/search"
	"planetp/internal/store"
	"planetp/internal/transport"
)

// receiverState is everything a oneway can change at its receiver.
type receiverState struct {
	senderVer, selfVer directory.Version
	news, fires        int64
	brokered           []string // snippet ids filed under the watched key
	notifies           int64    // notifies the receiver sent the watcher
	watchers           int
	replicas           []replica.Entry
	lsn                uint64
}

// TestEveryOnewayKindIdempotent holds the contract the transport's re-dial
// rests on (transport.Handler): each oneway kind delivered a second time,
// over live loopback transports, changes nothing at the receiver b that the
// first delivery did not. a sends every kind but the watch, which c sends:
// b's notifies then go to c alone, and its sends to c count them.
func TestEveryOnewayKindIdempotent(t *testing.T) {
	key := Terms("osprey")[0]
	var news, fires, notifies atomic.Int64
	a, err := NewPeer(Config{ID: 0, Capacity: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	c, err := NewPeer(Config{ID: 2, Capacity: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	b, err := NewPeer(Config{
		ID: 1, Capacity: 3, Seed: 2,
		BrokerTopFrac: 1, BrokerDiscard: time.Minute,
		DataDir: "data", Store: store.Options{FS: store.NewMemFS()},
		Replicas: 3,
		Gossip:   gossip.Config{OnNews: func(directory.Record) { news.Add(1) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	peers := []*Peer{a, b, c}
	for _, p := range peers {
		for _, q := range peers {
			if p != q {
				p.dir.Upsert(q.node.OutgoingSelf())
			}
		}
		p.node.Quiesce()
	}
	b.PostPersistentQuery(key, func(search.DocResult) { fires.Add(1) })
	b.tp.FateHook = func(to directory.PeerID) (error, bool, time.Duration, bool) {
		if to == c.id {
			notifies.Add(1)
		}
		return nil, false, 0, false
	}
	mustPublish(t, a, `<doc>osprey over the estuary</doc>`)

	snapshot := func() receiverState {
		s := receiverState{
			senderVer: b.dir.VersionOf(a.id),
			selfVer:   b.node.SelfRecord().Ver,
			news:      news.Load(),
			fires:     fires.Load(),
			notifies:  notifies.Load(),
			lsn:       b.st.LastLSN(),
		}
		for _, sn := range b.broker.Get(key) {
			s.brokered = append(s.brokered, sn.ID)
		}
		b.mu.Lock()
		s.watchers = len(b.watchers)
		b.mu.Unlock()
		s.replicas = b.rep.Entries()
		return s
	}
	put := broker.Snippet{ID: "osprey-doc", Owner: int32(a.id), Keys: []string{key}}
	notice := broker.Snippet{ID: "estuary-doc", Owner: int32(a.id), Keys: []string{key, "estuary"}}
	const repKey, repXML = "heron-doc", `<doc>heron in the reeds</doc>`
	steps := []struct {
		kind string
		send func() error
	}{
		{"gossip", func() error {
			return a.tp.Send(b.id, &gossip.Message{Type: gossip.MsgRumor, From: a.id, Updates: []directory.Record{a.node.OutgoingSelf()}})
		}},
		{"broker_watch", func() error { return c.tp.BrokerWatch(b.id, []string{key}) }},
		{"broker_put", func() error {
			return a.tp.BrokerPutBatch(b.id, []transport.KeyedSnippet{{Snippet: put, Keys: put.Keys}}, time.Minute)
		}},
		{"notify", func() error { return a.tp.Notify(b.id, notice) }},
		{"replica_put", func() error { return a.tp.ReplicaPut(b.id, repKey, repXML, a.id, 1) }},
		{"replica_purge", func() error { return a.tp.ReplicaPurge(b.id, repKey, a.id, 1) }},
	}
	for _, step := range steps {
		before := snapshot()
		if err := step.send(); err != nil {
			t.Fatalf("%s: first delivery: %v", step.kind, err)
		}
		once := snapshot()
		if reflect.DeepEqual(once, before) {
			t.Fatalf("%s: the first delivery changed nothing; the step tests nothing", step.kind)
		}
		if err := step.send(); err != nil {
			t.Fatalf("%s: second delivery: %v", step.kind, err)
		}
		if twice := snapshot(); !reflect.DeepEqual(twice, once) {
			t.Fatalf("%s: the second delivery changed the receiver:\n once  %+v\n twice %+v", step.kind, once, twice)
		}
	}
}
