package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/faultnet"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
)

// A RemoteError is returned once — the peer answered, so there is one dial
// and one exchange — and the stream it arrived on goes back to the pool.
func TestRemoteErrorNotRetriedAndCountsHealthy(t *testing.T) {
	ta, reg, _, _ := pairReg(t)
	var dials atomic.Int32
	ta.DialHook = func(to directory.PeerID, addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", addr, timeout)
	}

	// KindDoc is not a request kind the server understands; it answers
	// with Err = "unknown kind".
	_, err := ta.call(1, &Envelope{Kind: KindDoc, From: 0})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 (one attempt, conn reused after the RemoteError)", got)
	}
	if got := reg.Snapshot().Get("transport_pool_reuse_total"); got != 1 {
		t.Fatalf("transport_pool_reuse_total = %d, want 1", got)
	}
}

func TestFaultnetDialerMountsOnDialHook(t *testing.T) {
	// The faultnet conn-level shim must compose with the transport's
	// DialHook seam: injected dial failures surface as send errors and
	// count dial-failure metrics; a clean plan passes traffic through.
	_, _, tb, hb := pair(t)
	reg := metrics.NewRegistry()
	h := newHandler(0)
	resolve := func(id directory.PeerID) (string, bool) { return tb.Addr(), true }
	tr, err := New(0, "", h, resolve, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	clock := func() time.Duration { return tr.Now() }

	failing := faultnet.New(faultnet.Config{Seed: 1, DialFail: 1}, nil)
	tr.DialHook = DialHook(failing.Dialer(0, clock, nil))
	err = tr.Send(1, &gossip.Message{Type: gossip.MsgAERequest, From: 0})
	if !errors.Is(err, faultnet.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := reg.Snapshot().Get("transport_dial_failures_total"); got != 1 {
		t.Fatalf("transport_dial_failures_total = %d, want 1", got)
	}

	clean := faultnet.New(faultnet.Config{Seed: 1}, nil)
	tr.DialHook = DialHook(clean.Dialer(0, clock, nil))
	if err := tr.Send(1, &gossip.Message{Type: gossip.MsgAERequest, From: 0, Digest: 5}); err != nil {
		t.Fatalf("send through clean plan: %v", err)
	}
	waitFor(t, "delivery through clean plan", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 1
	})
}
