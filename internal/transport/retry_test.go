package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/faultnet"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
)

func TestBackoffCappedGrowth(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 1)
	b.Jitter = 0 // exact sequence
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("Next()[%d] = %v, want %v", i, got, w)
		}
	}
	if got := b.Attempts(); got != len(want) {
		t.Fatalf("Attempts = %d, want %d", got, len(want))
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		b := NewBackoff(100*time.Millisecond, 10*time.Second, seed)
		nominal := 100 * time.Millisecond
		for i := 0; i < 8; i++ {
			d := b.Next()
			lo := time.Duration(float64(nominal) * (1 - b.Jitter))
			hi := time.Duration(float64(nominal) * (1 + b.Jitter))
			if d < lo || d > hi {
				t.Fatalf("seed %d attempt %d: %v outside [%v, %v]", seed, i, d, lo, hi)
			}
			if nominal < b.Max {
				nominal *= 2
				if nominal > b.Max {
					nominal = b.Max
				}
			}
		}
	}
}

func TestBackoffNeverExceedsMax(t *testing.T) {
	b := NewBackoff(time.Second, 2*time.Second, 7)
	for i := 0; i < 50; i++ {
		if d := b.Next(); d > b.Max {
			t.Fatalf("attempt %d: %v > Max %v", i, d, b.Max)
		}
	}
}

func TestBackoffResetOnSuccess(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 3)
	b.Jitter = 0
	b.Next()
	b.Next()
	b.Next()
	b.Reset()
	if got := b.Attempts(); got != 0 {
		t.Fatalf("Attempts after Reset = %d", got)
	}
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("first delay after Reset = %v, want Base", got)
	}
}

func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	if b.Base != 100*time.Millisecond || b.Max != 5*time.Second || b.Factor != 2 || b.Jitter != 0.2 {
		t.Fatalf("defaults = %+v", b)
	}
	if b := NewBackoff(time.Minute, time.Second, 1); b.Max != time.Minute {
		t.Fatalf("Max < Base not raised: %v", b.Max)
	}
}

// fakeClockTransport builds a transport whose retry layer runs on a fake
// clock: sleeps advance virtual time instantly, and dials are answered
// by a scripted hook.
func fakeClockTransport(t *testing.T, hook DialHook, reg *metrics.Registry) (*Transport, *time.Duration) {
	t.Helper()
	h := newHandler(0)
	resolve := func(id directory.PeerID) (string, bool) { return "10.0.0.1:1", true }
	tr, err := New(0, "", h, resolve, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	now := new(time.Duration)
	var mu sync.Mutex
	tr.nowFn = func() time.Duration { mu.Lock(); defer mu.Unlock(); return *now }
	tr.sleep = func(d time.Duration) { mu.Lock(); *now += d; mu.Unlock() }
	tr.DialHook = hook
	return tr, now
}

// failNTimes returns a DialHook erroring on the first n attempts, then
// delegating to a live transport at liveAddr, and a counter of attempts.
func failNTimes(n int, liveAddr string) (DialHook, *int32) {
	var mu sync.Mutex
	count := new(int32)
	return func(to directory.PeerID, addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		*count++
		c := *count
		mu.Unlock()
		if int(c) <= n {
			return nil, fmt.Errorf("injected dial failure %d", c)
		}
		return net.DialTimeout("tcp", liveAddr, timeout)
	}, count
}

func TestTransientDialFailureRetriedWithinOneSend(t *testing.T) {
	// One transient failure, then the real peer: a single Send must
	// succeed via its in-call retry, and the message must arrive.
	_, _, tb, hb := pair(t)
	reg := metrics.NewRegistry()
	hook, attempts := failNTimes(1, tb.Addr())
	tr, _ := fakeClockTransport(t, hook, reg)

	if err := tr.Send(1, &gossip.Message{Type: gossip.MsgAERequest, From: 0, Digest: 9}); err != nil {
		t.Fatalf("send with one transient failure: %v", err)
	}
	if *attempts != 2 {
		t.Fatalf("attempts = %d, want 2", *attempts)
	}
	waitFor(t, "retried delivery", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 1
	})
	if got := reg.Snapshot().Get("transport_send_retries_total"); got != 1 {
		t.Fatalf("transport_send_retries_total = %d, want 1", got)
	}
	if tr.PeerSuppressed(1) {
		t.Fatal("peer suppressed after successful retry")
	}
}

// TestRetryRngDrawnOnlyOnRetry: a send that succeeds first time builds no
// Backoff and so draws nothing from retryRng; a retry draws exactly one
// seed, so its jitter is a function of the transport seed alone.
func TestRetryRngDrawnOnlyOnRetry(t *testing.T) {
	// pair's first transport and fakeClockTransport both use seed 1.
	fresh := func() *rand.Rand { return rand.New(rand.NewSource(1 ^ 0x7265747279)) }
	msg := &gossip.Message{Type: gossip.MsgAERequest, From: 0, Digest: 9}

	ta, _, tb, _ := pair(t)
	if _, err := ta.Query(1, []string{"gossip"}, false); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	if got, want := ta.retrySeed(), fresh().Int63(); got != want {
		t.Fatal("a successful Query and Send drew from retryRng")
	}

	hook, _ := failNTimes(1, tb.Addr())
	tr, now := fakeClockTransport(t, hook, nil)
	if err := tr.Send(1, msg); err != nil {
		t.Fatalf("send with one transient failure: %v", err)
	}
	rng := fresh()
	if want := NewBackoff(tr.RetryBase, tr.RetryMax, rng.Int63()).Next(); *now != want {
		t.Fatalf("retry slept %v, want %v from the transport seed's first draw", *now, want)
	}
	if got, want := tr.retrySeed(), rng.Int63(); got != want {
		t.Fatal("one retried send drew more than one seed from retryRng")
	}
}

func TestSuppressionAfterThresholdAndRecoveryProbe(t *testing.T) {
	reg := metrics.NewRegistry()
	var dead bool
	var mu sync.Mutex
	dials := 0
	hook := func(to directory.PeerID, addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		dials++
		if dead {
			return nil, errors.New("injected: peer down")
		}
		return nil, nil // never reached while dead in this test
	}
	tr, now := fakeClockTransport(t, hook, reg)
	tr.Retries = 0 // isolate the suppression state machine
	tr.FailThreshold = 2
	mu.Lock()
	dead = true
	mu.Unlock()

	msg := &gossip.Message{Type: gossip.MsgAERequest, From: 0}
	// Two failed sends reach the threshold.
	for i := 0; i < 2; i++ {
		if err := tr.Send(1, msg); err == nil {
			t.Fatal("send to dead peer should fail")
		}
	}
	if !tr.PeerSuppressed(1) {
		t.Fatal("peer not suppressed at threshold")
	}
	// Inside the window: fail fast, no dial burned.
	mu.Lock()
	before := dials
	mu.Unlock()
	err := tr.Send(1, msg)
	if !errors.Is(err, ErrSuppressed) {
		t.Fatalf("suppressed send error = %v, want ErrSuppressed", err)
	}
	mu.Lock()
	if dials != before {
		t.Fatalf("suppressed send dialed (dials %d -> %d)", before, dials)
	}
	mu.Unlock()
	if got := reg.Snapshot().Get("transport_suppressed_sends_total"); got != 1 {
		t.Fatalf("transport_suppressed_sends_total = %d, want 1", got)
	}

	// Past the window one attempt is admitted as a probe; the peer is
	// still dead, so the window re-arms.
	*now += tr.RetryMax
	if err := tr.Send(1, msg); errors.Is(err, ErrSuppressed) {
		t.Fatal("probe not admitted after window expiry")
	}
	if got := reg.Snapshot().Get("transport_recovery_probes_total"); got != 1 {
		t.Fatalf("transport_recovery_probes_total = %d, want 1", got)
	}
	if !tr.PeerSuppressed(1) {
		t.Fatal("failed probe should re-arm suppression")
	}
}

func TestProbeSuccessClearsSuppression(t *testing.T) {
	_, _, tb, _ := pair(t)
	var dead bool
	var mu sync.Mutex
	hook := func(to directory.PeerID, addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		d := dead
		mu.Unlock()
		if d {
			return nil, errors.New("injected: peer down")
		}
		return net.DialTimeout("tcp", tb.Addr(), timeout)
	}
	tr, now := fakeClockTransport(t, hook, nil)
	tr.Retries = 0
	tr.FailThreshold = 2
	mu.Lock()
	dead = true
	mu.Unlock()

	msg := &gossip.Message{Type: gossip.MsgAERequest, From: 0}
	for i := 0; i < 2; i++ {
		_ = tr.Send(1, msg)
	}
	if !tr.PeerSuppressed(1) {
		t.Fatal("peer not suppressed")
	}
	// Peer comes back; the next admitted probe succeeds and clears the
	// suppression entirely.
	mu.Lock()
	dead = false
	mu.Unlock()
	*now += tr.RetryMax
	if err := tr.Send(1, msg); err != nil {
		t.Fatalf("probe to recovered peer: %v", err)
	}
	if tr.PeerSuppressed(1) {
		t.Fatal("suppression not cleared by successful probe")
	}
}

func TestRemoteErrorNotRetriedAndCountsHealthy(t *testing.T) {
	// An application-level error from a live peer must not be retried
	// and must not advance the failure streak.
	_, _, tb, _ := pair(t)
	reg := metrics.NewRegistry()
	hook, attempts := failNTimes(0, tb.Addr())
	tr, _ := fakeClockTransport(t, hook, reg)
	tr.FailThreshold = 1

	// KindDoc is not a request kind the server understands; it answers
	// with Err = "unknown kind".
	_, err := tr.call(1, &Envelope{Kind: KindDoc, From: 0})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if *attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on RemoteError)", *attempts)
	}
	if got := reg.Snapshot().Get("transport_send_retries_total"); got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
	if tr.PeerSuppressed(1) {
		t.Fatal("RemoteError advanced the failure streak")
	}
}

func TestZeroFailThresholdDisablesSuppression(t *testing.T) {
	hook, _ := failNTimes(1000, "")
	tr, _ := fakeClockTransport(t, hook, nil)
	tr.Retries = 0
	tr.FailThreshold = 0
	msg := &gossip.Message{Type: gossip.MsgAERequest, From: 0}
	for i := 0; i < 10; i++ {
		if err := tr.Send(1, msg); errors.Is(err, ErrSuppressed) {
			t.Fatal("suppression engaged with FailThreshold = 0")
		}
	}
	if tr.PeerSuppressed(1) {
		t.Fatal("PeerSuppressed with FailThreshold = 0")
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
	tr.Retries = 0
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

// A peer that reappears at a new address is a new incarnation (live
// peers rejoin on a fresh ephemeral port): the failure streak built
// against the dead endpoint must not suppress sends to the new one, and
// the streak must restart from zero there.
func TestNewAddressResetsFailureStreak(t *testing.T) {
	var mu sync.Mutex
	addr := "10.0.0.1:1"
	resolve := func(id directory.PeerID) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		return addr, true
	}
	hook := func(to directory.PeerID, a string, timeout time.Duration) (net.Conn, error) {
		return nil, fmt.Errorf("injected: dial %s refused", a)
	}
	tr, err := New(0, "", newHandler(0), resolve, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	tr.DialHook = hook
	tr.Retries = 0
	tr.FailThreshold = 2

	msg := &gossip.Message{Type: gossip.MsgAERequest, From: 0}
	for i := 0; i < 2; i++ {
		if err := tr.Send(1, msg); err == nil {
			t.Fatal("send to dead peer should fail")
		}
	}
	if err := tr.Send(1, msg); !errors.Is(err, ErrSuppressed) {
		t.Fatalf("err at old address = %v, want ErrSuppressed", err)
	}

	// The peer reincarnates elsewhere: the next two sends must be
	// admitted (dialed, failing with the injected error), and only the
	// third — a fresh streak reaching the threshold — suppressed.
	mu.Lock()
	addr = "10.0.0.2:1"
	mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := tr.Send(1, msg); errors.Is(err, ErrSuppressed) {
			t.Fatalf("send %d after address change suppressed", i)
		}
	}
	if err := tr.Send(1, msg); !errors.Is(err, ErrSuppressed) {
		t.Fatalf("err after new streak = %v, want ErrSuppressed", err)
	}
}
