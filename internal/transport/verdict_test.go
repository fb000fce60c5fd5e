package transport

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
)

// The outcomes a reachability script is written in.
const (
	sendFail = iota // the node's next send to the peer fails
	sendOK          // it is delivered
	inbound         // a message from the peer arrives
)

// scriptEnv is the simulator's side of TestVerdictSameOnSimAndLoopback: a
// gossip.Env whose Send fails or succeeds as the script says, with no
// transport under it.
type scriptEnv struct {
	rng  *rand.Rand
	fail bool
}

func (e *scriptEnv) Now() time.Duration              { return 0 }
func (e *scriptEnv) Rand() *rand.Rand                { return e.rng }
func (e *scriptEnv) IntervalChanged(d time.Duration) {}
func (e *scriptEnv) Send(directory.PeerID, *gossip.Message) error {
	if e.fail {
		return errors.New("scripted: unreachable")
	}
	return nil
}

// nodeHandler is a Handler that hands gossip to a node, as core's does.
type nodeHandler struct {
	*recordingHandler
	node *gossip.Node
}

func (h nodeHandler) HandleGossip(from directory.PeerID, m *gossip.Message) {
	h.node.Receive(from, m)
}

// TestVerdictSameOnSimAndLoopback drives one script of contact outcomes
// through a gossip.Node twice — over an Env with no network, as the
// simulator runs it, and over a loopback Transport whose FateHook injects
// the failures — and requires the same on/off-line sequence and the same
// failure counts from both: the transport adds no retry, no suppression
// and no verdict of its own to what the node decides.
func TestVerdictSameOnSimAndLoopback(t *testing.T) {
	script := []struct {
		outcome int
		online  bool // the node's opinion of the peer afterwards
	}{
		{sendFail, true}, // one strike is forgiven
		{sendOK, true},   // and cleared by a success
		{sendFail, true},
		{sendFail, false}, // two in a row are the verdict
		{inbound, true},   // revised when the peer is heard from
		{sendFail, true},
		{inbound, true}, // hearing from it clears the streak
		{sendFail, true},
		{sendFail, false},
		{sendFail, false}, // nobody sends to an off-line peer: no new strike
		{inbound, true},
		{sendOK, true},
		{sendFail, true},
		{sendOK, true},
		{sendFail, true},
	}
	const wantFailed, wantSuspected = 8, 2

	const self, peer = directory.PeerID(0), directory.PeerID(1)
	// Probes and discovery off: every send is a Tick's, to the one peer.
	cfg := gossip.Config{ProbeEvery: -1}
	selfRec := directory.Record{ID: self, Ver: directory.Version{Epoch: 1}}
	fromPeer := &gossip.Message{Type: gossip.MsgRumorAck, From: peer}

	run := func(node *gossip.Node, setFail func(bool), deliver func()) (online []bool, st gossip.Stats) {
		for _, s := range script {
			switch s.outcome {
			case inbound:
				deliver()
			default:
				setFail(s.outcome == sendFail)
				node.Tick()
			}
			e, _ := node.Directory().Entry(peer)
			online = append(online, e.Online)
		}
		return online, node.Stats()
	}

	// Simulated: no transport.
	env := &scriptEnv{rng: rand.New(rand.NewSource(1))}
	simDir := directory.New(self, 2)
	simNode := gossip.NewNode(selfRec, simDir, cfg, env)
	simDir.Upsert(directory.Record{ID: peer, Ver: directory.Version{Epoch: 1}})
	simOnline, simStats := run(simNode,
		func(fail bool) { env.fail = fail },
		func() { simNode.Receive(peer, fromPeer) })

	// Live: two transports on loopback.
	liveDir := directory.New(self, 2)
	resolve := func(id directory.PeerID) (string, bool) {
		rec, ok := liveDir.Get(id)
		return rec.Addr, ok
	}
	ha := nodeHandler{recordingHandler: newHandler(self)}
	ta, err := NewDeferred(self, "", &ha, resolve, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ta.Close)
	tb, err := New(peer, "", newHandler(peer), func(directory.PeerID) (string, bool) { return ta.Addr(), true }, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	selfRec.Addr = ta.Addr()
	ha.node = gossip.NewNode(selfRec, liveDir, cfg, ta)
	liveDir.Upsert(directory.Record{ID: peer, Ver: directory.Version{Epoch: 1}, Addr: tb.Addr()})
	ta.StartAccepting()
	var fail bool
	ta.FateHook = func(directory.PeerID) (error, bool, time.Duration, bool) {
		if fail {
			return errors.New("injected: unreachable"), false, 0, false
		}
		return nil, false, 0, false
	}
	liveOnline, liveStats := run(ha.node,
		func(f bool) { fail = f },
		func() {
			if err := tb.Send(self, fromPeer); err != nil {
				t.Fatal(err)
			}
		})

	want := make([]bool, len(script))
	for i, s := range script {
		want[i] = s.online
	}
	if !reflect.DeepEqual(simOnline, want) {
		t.Errorf("simulated on-line sequence\n got %v\nwant %v", simOnline, want)
	}
	if !reflect.DeepEqual(liveOnline, want) {
		t.Errorf("loopback on-line sequence\n got %v\nwant %v", liveOnline, want)
	}
	for _, r := range []struct {
		name string
		st   gossip.Stats
	}{{"simulated", simStats}, {"loopback", liveStats}} {
		if r.st.FailedSends != wantFailed || r.st.Suspected != wantSuspected {
			t.Errorf("%s: FailedSends = %d, Suspected = %d, want %d and %d",
				r.name, r.st.FailedSends, r.st.Suspected, wantFailed, wantSuspected)
		}
	}
}
