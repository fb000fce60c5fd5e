package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/faultnet"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
)

// pairReg is pair with a metrics registry on the client side, for
// asserting pool behavior through its counters.
func pairReg(t *testing.T) (*Transport, *metrics.Registry, *Transport, *recordingHandler) {
	t.Helper()
	reg := metrics.NewRegistry()
	ta, _, tb, hb := pairWith(t, reg, nil)
	return ta, reg, tb, hb
}

func TestPooledConnReusedAcrossRPCs(t *testing.T) {
	ta, reg, _, hb := pairReg(t)
	for i := 0; i < 3; i++ {
		if _, err := ta.Query(1, []string{"x"}, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "gossip delivery", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 2
	})
	snap := reg.Snapshot()
	if got := snap.Get("transport_dials_total"); got != 1 {
		t.Fatalf("dials = %d, want 1 (all five RPCs on one conn)", got)
	}
	if got := snap.Get("transport_pool_reuse_total"); got != 4 {
		t.Fatalf("pool reuse = %d, want 4", got)
	}
	if got := snap.Get("transport_pool_misses_total"); got != 1 {
		t.Fatalf("pool misses = %d, want 1", got)
	}
	if got := snap.Gauges["transport_pool_idle_conns"]; got != 1 {
		t.Fatalf("idle conns gauge = %d, want 1", got)
	}
}

// Byte accounting must stay truthful per kind when many exchanges share
// one conn: each RPC's delta lands on its own kind.
func TestByteAccountingAccurateUnderReuse(t *testing.T) {
	ta, reg, _, _ := pairReg(t)
	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	if err := ta.BrokerPut(1, "k", broker.Snippet{ID: "s1", Keys: []string{"k"}}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.GetDoc(1, "missing"); !errors.Is(err, ErrDocNotFound) {
		t.Fatal("expected definitive miss")
	}
	snap := reg.Snapshot()
	for _, kind := range []string{"query", "broker_put", "get_doc"} {
		if snap.Get("transport_tx_bytes_"+kind) <= 0 {
			t.Fatalf("tx bytes for %s not counted", kind)
		}
		if snap.Get("transport_rx_bytes_"+kind) <= 0 {
			t.Fatalf("rx bytes for %s not counted (acks/responses share the conn)", kind)
		}
	}
}

// slowFirstWriteConn stalls the first write — a slow-but-healthy send
// (large summary over a thin link).
type slowFirstWriteConn struct {
	net.Conn
	stall   time.Duration
	stalled bool
}

func (c *slowFirstWriteConn) Write(p []byte) (int, error) {
	if !c.stalled {
		c.stalled = true
		time.Sleep(c.stall)
	}
	return c.Conn.Write(p)
}

// Regression for the deadline bug where oneway sends armed SetDeadline
// with dialTimeout: a send slower than the dial budget but well inside
// the RPC budget must succeed.
func TestOnewaySlowerThanDialBudgetSucceeds(t *testing.T) {
	ta, _, _, hb := pairReg(t)
	ta.dialTimeout = 50 * time.Millisecond
	ta.rpcTimeout = 5 * time.Second
	ta.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &slowFirstWriteConn{Conn: c, stall: 200 * time.Millisecond}, nil
	}
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest}); err != nil {
		t.Fatalf("slow-but-healthy oneway killed: %v (deadline armed from DialTimeout?)", err)
	}
	waitFor(t, "slow gossip delivery", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 1
	})
}

// The converse: the RPC deadline must still be armed at all, so a send
// slower than the RPC budget fails.
func TestOnewayBoundByRPCTimeout(t *testing.T) {
	ta, _, _, _ := pairReg(t)
	ta.rpcTimeout = 60 * time.Millisecond
	ta.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &slowFirstWriteConn{Conn: c, stall: 400 * time.Millisecond}, nil
	}
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest}); err == nil {
		t.Fatal("send past the RPC deadline should fail")
	}
}

// A rejoining peer comes back on a new port: conns pool by address, so the
// one pooled against the old address never carries another request, and
// the next RPC dials the new one.
func TestAddressChangeInvalidatesPooledConns(t *testing.T) {
	ha, hb, hc := newHandler(0), newHandler(1), newHandler(1)
	reg := metrics.NewRegistry()
	var ta, tb, tc *Transport
	var mu sync.Mutex
	current := func() *Transport { mu.Lock(); defer mu.Unlock(); return tb }
	resolve := func(id directory.PeerID) (string, bool) {
		if id == 1 {
			return current().Addr(), true
		}
		return "", false
	}
	var err error
	ta, err = New(0, "", ha, resolve, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ta.Close)
	tb, err = New(1, "", hb, resolve, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tc, err = New(1, "", hc, resolve, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.Close)

	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery to old address", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 1
	})
	// Peer 1 "rejoins" at tc's address.
	mu.Lock()
	tb = tc
	mu.Unlock()
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery to new address", func() bool {
		hc.mu.Lock()
		defer hc.mu.Unlock()
		return len(hc.gossips) == 1
	})
	snap := reg.Snapshot()
	if got := snap.Get("transport_dials_total"); got != 2 {
		t.Fatalf("dials = %d, want 2 (one per address)", got)
	}
	if got := snap.Get("transport_pool_reuse_total"); got != 0 {
		t.Fatalf("reuse = %d, want 0 (the old conn must not be reused)", got)
	}
}

// A pooled conn torn mid-request-write: the envelope provably never
// decoded at the server, so exactly one transparent re-dial delivers it —
// no error to the caller, no double delivery.
func TestTornWriteOnewayTransparentRedial(t *testing.T) {
	ta, reg, _, hb := pairReg(t)
	var mu sync.Mutex
	var conns []*killableConn
	ta.dial = killableDial(&conns, &mu)

	if err := ta.BrokerPut(1, "k1", broker.Snippet{ID: "s1", Keys: []string{"k1"}}, time.Minute); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	conns[0].kill(killWrite, 3)
	mu.Unlock()
	if err := ta.BrokerPut(1, "k2", broker.Snippet{ID: "s2", Keys: []string{"k2"}}, time.Minute); err != nil {
		t.Fatalf("torn write not recovered: %v", err)
	}
	waitFor(t, "both puts delivered once", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.puts) == 2
	})
	hb.mu.Lock()
	puts := append([]string(nil), hb.puts...)
	hb.mu.Unlock()
	if puts[0] != "k1:s1" || puts[1] != "k2:s2" {
		t.Fatalf("puts = %v (double delivery?)", puts)
	}
	snap := reg.Snapshot()
	if got := snap.Get("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want exactly 1", got)
	}
}

// A pooled conn whose response read fails under a call: calls are
// idempotent reads, so one transparent re-dial re-asks.
func TestTornReadCallTransparentRedial(t *testing.T) {
	ta, reg, _, _ := pairReg(t)
	var mu sync.Mutex
	var conns []*killableConn
	ta.dial = killableDial(&conns, &mu)

	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	conns[0].kill(killRead, 0)
	mu.Unlock()
	docs, err := ta.Query(1, []string{"x"}, false)
	if err != nil || len(docs) != 1 {
		t.Fatalf("torn read not recovered: %v %v", docs, err)
	}
	snap := reg.Snapshot()
	if got := snap.Get("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want exactly 1", got)
	}
}

// A oneway whose request went out but whose ack never came back is re-sent
// once on a fresh dial, like any exchange that failed before a reply byte:
// the server handles it twice, which every oneway kind tolerates, and the
// caller sees no error.
func TestTornReadOnewayTransparentRedial(t *testing.T) {
	ta, reg, _, hb := pairReg(t)
	var mu sync.Mutex
	var conns []*killableConn
	ta.dial = killableDial(&conns, &mu)

	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 1}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	conns[0].kill(killRead, 0)
	mu.Unlock()
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 2}); err != nil {
		t.Fatalf("ack-less oneway not recovered: %v", err)
	}
	waitFor(t, "the second gossip delivered twice", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 3
	})
	hb.mu.Lock()
	d := []uint64{hb.gossips[0].Digest, hb.gossips[1].Digest, hb.gossips[2].Digest}
	hb.mu.Unlock()
	if d[0] != 1 || d[1] != 2 || d[2] != 2 {
		t.Fatalf("delivered digests = %v, want [1 2 2]", d)
	}
	if got := reg.Snapshot().Get("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want exactly 1", got)
	}
}

// A server that handles a oneway and then drops the conn before acking:
// the exchange failed before any reply byte, so it is re-sent on a fresh
// dial and the caller sees no error.
func TestLostAckOnewayRedialed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	var mu sync.Mutex
	var handled []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				fc := newFrameConn(conn)
				for {
					var env Envelope
					if err := fc.readFrame(&env); err != nil {
						return
					}
					mu.Lock()
					handled = append(handled, env.Puts[0].Snippet.ID)
					n := len(handled)
					mu.Unlock()
					if n == 2 {
						return // handled, but the ack is lost with the conn
					}
					if err := fc.writeFrame(&Envelope{Kind: KindAck}); err != nil {
						return
					}
				}
			}()
		}
	}()
	reg := metrics.NewRegistry()
	ta, err := New(0, "", newHandler(0), func(directory.PeerID) (string, bool) { return ln.Addr().String(), true }, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ta.Close)

	for _, id := range []string{"s1", "s2"} {
		if err := ta.BrokerPut(1, "k", broker.Snippet{ID: id, Keys: []string{"k"}}, time.Minute); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	mu.Lock()
	got := append([]string(nil), handled...)
	mu.Unlock()
	if len(got) != 3 || got[0] != "s1" || got[1] != "s2" || got[2] != "s2" {
		t.Fatalf("handled = %v, want [s1 s2 s2]", got)
	}
	snap := reg.Snapshot()
	if got := snap.Get("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
	if got := snap.Get("transport_dials_total"); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
}

// An exchange on a reused conn that runs into its deadline is not re-sent,
// whatever its kind: the peer is slow or gone, not restarted, and a re-sent
// exchange could keep the caller waiting twice the deadline.
func TestDeadlineOnReusedConnNotRedialed(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(*Transport) error
	}{
		{"call", func(ta *Transport) error { _, err := ta.Query(1, []string{"x"}, false); return err }},
		{"oneway", func(ta *Transport) error { return ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ta, reg, _, _ := pairReg(t)
			var mu sync.Mutex
			var conns []*killableConn
			ta.dial = killableDial(&conns, &mu)
			if err := tc.send(ta); err != nil {
				t.Fatal(err)
			}
			ta.rpcTimeout = 100 * time.Millisecond
			mu.Lock()
			conns[0].kill(killMute, 0)
			mu.Unlock()
			start := time.Now()
			err := tc.send(ta)
			if !isTimeout(err) {
				t.Fatalf("err = %v, want the deadline's timeout", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("the failed exchange took %v", d)
			}
			snap := reg.Snapshot()
			if got := snap.Get("transport_pool_redials_total"); got != 0 {
				t.Fatalf("redials = %d, want 0", got)
			}
			if got := snap.Get("transport_dials_total"); got != 1 {
				t.Fatalf("dials = %d, want 1 (nothing re-dialed)", got)
			}
			if got := snap.Get("transport_timeouts_total"); got != 1 {
				t.Fatalf("timeouts = %d, want 1", got)
			}
			if err := tc.send(ta); err != nil {
				t.Fatalf("the exchange after the timeout: %v", err)
			}
		})
	}
}

// A peer that restarted without a FIN (a host crash) leaves every conn
// pooled to it dead but quiet. The first to fail under an exchange retires
// its siblings, and the exchange is re-sent on one fresh dial: the restart
// costs one failed exchange, which the caller never sees.
func TestRestartWithoutFINCostsOneExchange(t *testing.T) {
	ta, reg, tb, hb := pairReg(t)
	var mu sync.Mutex
	var conns []*killableConn
	ta.dial = killableDial(&conns, &mu)
	for range 2 {
		conn, err := ta.dialAddr(tb.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ta.pool.put(newPconn(conn, tb.Addr()))
	}
	mu.Lock()
	for _, c := range conns {
		c.kill(killRead, 0)
	}
	mu.Unlock()
	send := func(digest uint64) error {
		return ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: digest})
	}
	if err := send(1); err != nil {
		t.Fatalf("the send on the dead conn: %v", err)
	}
	if err := send(2); err != nil {
		t.Fatalf("the send after it: %v", err)
	}
	waitFor(t, "the gossips delivered", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 3 // the first twice: its ack was lost
	})
	snap := reg.Snapshot()
	if got := snap.Get("transport_pool_stale_total"); got != 1 {
		t.Fatalf("stale = %d, want 1 (the sibling retired)", got)
	}
	if got := snap.Get("transport_dials_total"); got != 3 {
		t.Fatalf("dials = %d, want 3 (two pooled, one fresh)", got)
	}
	if got := snap.Get("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
}

// A server restart FINs every pooled conn. The next call on one fails
// before any reply byte and is re-sent on a fresh dial to the new server:
// the caller sees no error.
func TestServerRestartCaughtByRedial(t *testing.T) {
	ha, hb, hb2 := newHandler(0), newHandler(1), newHandler(1)
	reg := metrics.NewRegistry()
	var ta, tb *Transport
	var addr string
	resolve := func(id directory.PeerID) (string, bool) {
		if id == 1 {
			return addr, true
		}
		return "", false
	}
	var err error
	ta, err = New(0, "", ha, resolve, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ta.Close)
	tb, err = New(1, "", hb, resolve, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr = tb.Addr()

	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	tb2, err := New(1, addr, hb2, resolve, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb2.Close)
	// Let the FIN from the dead server reach the client's pooled conn.
	time.Sleep(100 * time.Millisecond)

	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatalf("query after server restart: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Get("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want 1 (the dead conn's exchange re-sent)", got)
	}
	if got := snap.Get("transport_pool_stale_total"); got != 0 {
		t.Fatalf("stale = %d, want 0 (no sibling was pooled)", got)
	}
}

func TestPoolIdleReap(t *testing.T) {
	ta, reg, _, _ := pairReg(t)
	ta.poolIdle = 30 * time.Millisecond
	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "idle conn reaped", func() bool {
		snap := reg.Snapshot()
		return snap.Get("transport_pool_reaped_total") == 1 &&
			snap.Gauges["transport_pool_idle_conns"] == 0
	})
	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Get("transport_dials_total"); got != 2 {
		t.Fatalf("dials = %d, want 2 (reaped conn forces a fresh dial)", got)
	}
}

// Direct pool-bound checks: per-address cap and the global LRU cap, using
// synthetic pipes so no server is involved.
func TestPoolCapsEvictOldest(t *testing.T) {
	reg := metrics.NewRegistry()
	tt, err := New(9, "", newHandler(9), func(directory.PeerID) (string, bool) { return "", false }, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tt.Close)
	tt.poolConns = 1

	mk := func(addr string) *pconn {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		return newPconn(a, addr)
	}
	p1 := mk("a")
	tt.pool.put(p1)
	time.Sleep(2 * time.Millisecond)
	tt.pool.put(mk("a")) // over the per-addr cap: p1 (oldest) evicted
	snap := reg.Snapshot()
	if got := snap.Get("transport_pool_evicted_total"); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	if got := snap.Gauges["transport_pool_idle_conns"]; got != 1 {
		t.Fatalf("idle = %d, want 1", got)
	}

	tt.poolConns = 1
	tt.poolMaxIdle = 2
	time.Sleep(2 * time.Millisecond)
	tt.pool.put(mk("b"))
	time.Sleep(2 * time.Millisecond)
	tt.pool.put(mk("c")) // over the global cap: oldest across addrs goes
	snap = reg.Snapshot()
	if got := snap.Get("transport_pool_evicted_total"); got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
	if got := snap.Gauges["transport_pool_idle_conns"]; got != 2 {
		t.Fatalf("idle = %d, want 2 (global cap)", got)
	}
}

// FateHook verdicts: err fails the attempt like a refused dial, drop
// loses the message after an apparently clean send, kill tears the
// pooled conn under the RPC (recovered by one transparent re-dial).
func TestFateHookVerdicts(t *testing.T) {
	ta, reg, _, hb := pairReg(t)

	// Warm the pool.
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 1}); err != nil {
		t.Fatal(err)
	}

	// drop: oneway reports success, nothing is transmitted.
	ta.FateHook = func(directory.PeerID) (error, bool, time.Duration, bool) {
		return nil, true, 0, false
	}
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 2}); err != nil {
		t.Fatalf("dropped oneway must look clean to the sender: %v", err)
	}
	if _, err := ta.Query(1, []string{"x"}, false); err == nil {
		t.Fatal("dropped call must fail (response never comes)")
	}

	// err: fails and is accounted like a dial failure.
	ta.FateHook = func(directory.PeerID) (error, bool, time.Duration, bool) {
		return errors.New("injected"), false, 0, false
	}
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 3}); err == nil {
		t.Fatal("fate error must fail the send")
	}
	if got := reg.Snapshot().Get("transport_dial_failures_total"); got != 1 {
		t.Fatalf("dial failures = %d, want 1 (fate error counts as one)", got)
	}

	// kill: the pooled conn dies under the RPC; delivery still happens
	// via exactly one transparent re-dial.
	ta.FateHook = func(directory.PeerID) (error, bool, time.Duration, bool) {
		return nil, false, 0, true
	}
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 4}); err != nil {
		t.Fatalf("conn-kill fate not recovered: %v", err)
	}
	ta.FateHook = nil
	waitFor(t, "digests 1 and 4 delivered", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 2
	})
	hb.mu.Lock()
	d0, d1 := hb.gossips[0].Digest, hb.gossips[1].Digest
	hb.mu.Unlock()
	if d0 != 1 || d1 != 4 {
		t.Fatalf("delivered digests = %d,%d, want 1,4 (drop leaked or kill double-delivered)", d0, d1)
	}
	if got := reg.Snapshot().Get("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
}

// A faultnet Plan mounts on the FateHook seam: ConnKill=1 tears the
// pooled conn under every send, and every send still lands via exactly
// one transparent re-dial per kill.
func TestFaultnetConnKillOnPooledStream(t *testing.T) {
	ta, reg, _, hb := pairReg(t)
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: 0}); err != nil {
		t.Fatal(err)
	}
	plan := faultnet.New(faultnet.Config{Seed: 7, ConnKill: 1}, nil)
	ta.FateHook = plan.SendFate(0, ta.Now)
	for i := 1; i <= 3; i++ {
		if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest, Digest: uint64(i)}); err != nil {
			t.Fatalf("send %d under ConnKill: %v", i, err)
		}
	}
	waitFor(t, "all four gossips delivered once", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 4
	})
	if got := reg.Snapshot().Get("transport_pool_redials_total"); got != 3 {
		t.Fatalf("redials = %d, want 3 (one per killed conn)", got)
	}
	if c := plan.Counts(); c.ConnKills != 3 {
		t.Fatalf("plan ConnKills = %d, want 3", c.ConnKills)
	}
}

// A one-shot client (write one frame, close) must still be served by the
// session loop: the handler runs, the unread ack dies with the conn
// harmlessly.
func TestOneShotClientInterop(t *testing.T) {
	_, _, tb, hb := pairReg(t)
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendFrame(nil, &Envelope{Kind: KindGossip, From: 5, Gossip: &gossip.Message{Type: gossip.MsgAERequest, Digest: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "one-shot gossip delivery", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 1 && hb.gossips[0].Digest == 9
	})
}
