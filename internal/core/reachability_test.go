package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"planetp/internal/broker"
	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/transport"
)

// TestOneVerdictOnReachability holds DESIGN §4d's invariant from core's
// side: core only reports contact outcomes, and gossip.Node marks a peer
// off-line after SuspicionThreshold (2) consecutive failed contacts, with
// nothing heard from it in between. One lost reply leaves the peer on-line
// and the broker ring as it was; an answer of any kind — a RemoteError, a
// definitive miss — is a contact.
func TestOneVerdictOnReachability(t *testing.T) {
	peers := quietCommunity(t, 3, 0)
	p, target := peers[0], peers[1].id

	const (
		pass int32 = iota
		fail
		refuse
	)
	var fate atomic.Int32
	p.tp.FateHook = func(to directory.PeerID) (error, bool, time.Duration, bool) {
		if to != target {
			return nil, false, 0, false
		}
		switch fate.Load() {
		case fail:
			return errors.New("injected: reply lost"), false, 0, false
		case refuse:
			return &transport.RemoteError{Msg: "injected: refused"}, false, 0, false
		}
		return nil, false, 0, false
	}
	// A key the target brokers, so brokerSearch addresses it.
	var brokered string
	for i := 0; brokered == ""; i++ {
		key := fmt.Sprintf("key%d", i)
		if _, owner, _ := p.brokerRing().Successor(chash.Hash(key)); owner == target {
			brokered = key
		}
	}
	rpcs := map[string]func(){
		"Query":     func() { _, _ = fetcher{p}.QueryPeer(target, []string{"x"}) },
		"BrokerGet": func() { p.brokerSearch([]string{brokered}) },
		"GetDoc":    func() { _, _ = p.FetchDocument(target, "no-such-doc") },
	}
	rpc := func(f int32, name string) func() {
		return func() {
			fate.Store(f)
			rpcs[name]()
			fate.Store(pass)
		}
	}
	inbound := func() {
		if err := peers[1].tp.Send(p.id, &gossip.Message{Type: gossip.MsgRumorAck, From: target}); err != nil {
			t.Fatal(err)
		}
	}
	// The broker ring is built from the on-line ids alone.
	ring := p.dir.OnlineIDs()

	steps := []struct {
		what   string
		do     func()
		online bool
	}{
		{"one failed Query", rpc(fail, "Query"), true},
		{"a second in a row", rpc(fail, "Query"), false},
		{"heard from again", inbound, true},

		{"a failure", rpc(fail, "BrokerGet"), true},
		{"a success clears the streak", rpc(pass, "Query"), true},
		{"so the next failure is a first one", rpc(fail, "GetDoc"), true},
		{"an inbound message clears it too", inbound, true},
		{"failure after inbound", rpc(fail, "Query"), true},

		{"a refused Query is a contact", rpc(refuse, "Query"), true},
		{"failure after a refused Query", rpc(fail, "Query"), true},
		{"a refused BrokerGet is a contact", rpc(refuse, "BrokerGet"), true},
		{"failure after a refused BrokerGet", rpc(fail, "BrokerGet"), true},
		{"a refused GetDoc is a contact", rpc(refuse, "GetDoc"), true},
		{"failure after a refused GetDoc", rpc(fail, "GetDoc"), true},
		{"a definitive miss is a contact", rpc(pass, "GetDoc"), true},
		{"failure after a miss", rpc(fail, "GetDoc"), true},

		{"failures from different RPCs add up", rpc(fail, "Query"), false},
	}
	for _, s := range steps {
		s.do()
		if e, _ := p.dir.Entry(target); e.Online != s.online {
			t.Fatalf("%s: on-line = %v, want %v", s.what, e.Online, s.online)
		}
		if s.online && !reflect.DeepEqual(p.dir.OnlineIDs(), ring) {
			t.Fatalf("%s: broker ring changed under an on-line verdict", s.what)
		}
	}
	if got := p.node.Stats().Suspected; got != 2 {
		t.Fatalf("Suspected = %d, want 2", got)
	}

	// The target restarts: a higher epoch on a new port. Strikes against the
	// dead endpoint do not count against the new one.
	inbound()
	rpc(fail, "Query")()
	peers[1].Stop()
	reborn, err := NewPeer(Config{ID: target, Capacity: 3, Epoch: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reborn.Stop)
	if !p.dir.Upsert(reborn.node.OutgoingSelf()) {
		t.Fatal("the restarted peer's record did not supersede the old one")
	}
	rpc(fail, "Query")()
	if e, _ := p.dir.Entry(target); !e.Online {
		t.Fatal("a strike against the previous incarnation counted against the new one")
	}
	rpc(fail, "Query")()
	if e, _ := p.dir.Entry(target); e.Online {
		t.Fatal("two failed contacts with the new incarnation left it on-line")
	}
}

// TestBrokerSweptWithoutGet: a snippet filed under a key nobody asks for is
// released by the gossip loop's sweep, at most brokerSweepEvery after its
// discard time.
func TestBrokerSweptWithoutGet(t *testing.T) {
	p := quietCommunity(t, 1, 0)[0]
	var now time.Duration
	p.broker = broker.NewBroker(func() time.Duration { return now })
	p.putLocalSnippet(broker.Snippet{ID: "s", Keys: []string{"k"}}, "k", 10*time.Second)

	now = 30 * time.Second
	p.sweepBroker(now)
	if got := p.broker.Len(); got != 1 {
		t.Fatalf("Len = %d at 30 s: swept before a minute of clock passed", got)
	}
	now = brokerSweepEvery
	p.sweepBroker(now)
	if got := p.broker.Len(); got != 0 {
		t.Fatalf("Len = %d after the sweep, want 0", got)
	}
	p.putLocalSnippet(broker.Snippet{ID: "s2", Keys: []string{"k"}}, "k", time.Second)
	now += brokerSweepEvery - time.Second
	p.sweepBroker(now)
	if got := p.broker.Len(); got != 1 {
		t.Fatalf("Len = %d: swept twice within a minute", got)
	}
	now += time.Second
	p.sweepBroker(now)
	if got := p.broker.Len(); got != 0 {
		t.Fatalf("Len = %d after the second sweep, want 0", got)
	}
}
