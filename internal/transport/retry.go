package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"planetp/internal/directory"
)

// ErrSuppressed reports that a send was skipped without touching the
// network because the peer is inside its failure-suppression window.
// Callers see it as any other failed send (gossip counts it toward its
// suspicion streak), but no dial is burned on a peer already believed
// dead.
var ErrSuppressed = errors.New("transport: peer suppressed after repeated failures")

// RemoteError is an application-level error returned by a live peer
// (e.g. "unknown kind"). It is never retried and counts as a healthy
// contact: the peer answered, it just said no.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// DialHook overrides connection establishment for peer-addressed sends —
// the seam internal/faultnet mounts to inject dial failures, partitions,
// black holes, and delays under the real gob-over-TCP stack. addr is the
// resolved address; a nil hook dials TCP directly.
type DialHook func(to directory.PeerID, addr string, timeout time.Duration) (net.Conn, error)

// Backoff computes capped exponential delays with multiplicative jitter.
// The zero value is not ready; use NewBackoff. Safe for concurrent use.
type Backoff struct {
	// Base is the first delay (default 100 ms).
	Base time.Duration
	// Max caps the growth (default 5 s).
	Max time.Duration
	// Factor multiplies the delay each attempt (default 2).
	Factor float64
	// Jitter spreads each delay uniformly over ±Jitter of its nominal
	// value (default 0.2), so peers retrying the same dead target do not
	// synchronize.
	Jitter float64

	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

// NewBackoff returns a Backoff with the given bounds (zero values take
// the defaults) and a private rng for jitter.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if max < base {
		max = base
	}
	return &Backoff{
		Base: base, Max: max, Factor: 2, Jitter: 0.2,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Next returns the delay to wait before the next attempt and advances
// the sequence: Base, Base·Factor, Base·Factor², … capped at Max, each
// jittered by ±Jitter.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	raw := float64(b.Base)
	for i := 0; i < b.attempt; i++ {
		raw *= b.Factor
		if raw >= float64(b.Max) {
			raw = float64(b.Max)
			break
		}
	}
	b.attempt++
	if b.Jitter > 0 {
		raw *= 1 + b.Jitter*(2*b.rng.Float64()-1)
	}
	d := time.Duration(raw)
	if d > b.Max {
		d = b.Max
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Reset rewinds the sequence to Base (call after a success).
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// Attempts returns how many delays have been handed out since the last
// Reset.
func (b *Backoff) Attempts() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempt
}

// retrySeed draws one seed for a new Backoff from the retry layer's
// dedicated rng. The transport's main rng is reserved for the gossip
// node (see Rand) and must not be shared with send goroutines.
func (t *Transport) retrySeed() int64 {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.retryRng.Int63()
}

// peerHealth tracks one peer's consecutive-failure streak and its
// suppression window. The streak is bound to the address it was built
// against: failures describe a dead endpoint, so a peer that rejoins at
// a new address (a new incarnation) starts with a clean slate.
type peerHealth struct {
	addr  string
	fails int
	bo    *Backoff
	until time.Duration // transport-clock instant the window expires
}

// admit decides whether a send to the peer may touch the network. Inside
// an active suppression window it returns ErrSuppressed immediately;
// once the window has expired the attempt is admitted as a recovery
// probe (counted, and the window is re-armed so concurrent senders do
// not stampede a possibly-dead peer).
func (t *Transport) admit(to directory.PeerID) error {
	if t.FailThreshold <= 0 {
		return nil
	}
	addr, _ := t.resolve(to)
	t.healthMu.Lock()
	defer t.healthMu.Unlock()
	h, ok := t.health[to]
	if !ok {
		return nil
	}
	if addr != "" && h.addr != addr {
		// The peer moved; its failure streak belongs to the old
		// endpoint.
		delete(t.health, to)
		return nil
	}
	if h.fails < t.FailThreshold {
		return nil
	}
	now := t.nowFn()
	if now < h.until {
		t.m.suppressed.Inc()
		return fmt.Errorf("%w (peer %d)", ErrSuppressed, to)
	}
	h.until = now + h.bo.Next()
	t.m.probes.Inc()
	return nil
}

// noteResult folds one send outcome into the peer's health. Success (or
// a RemoteError — the peer answered) clears the streak; failure extends
// it and, at FailThreshold, opens or lengthens the suppression window.
func (t *Transport) noteResult(to directory.PeerID, err error) {
	if t.FailThreshold <= 0 {
		return
	}
	var remote *RemoteError
	healthy := err == nil || errors.As(err, &remote)
	addr, _ := t.resolve(to)
	t.healthMu.Lock()
	defer t.healthMu.Unlock()
	if healthy {
		delete(t.health, to)
		return
	}
	h := t.health[to]
	if h == nil || (addr != "" && h.addr != addr) {
		h = &peerHealth{addr: addr, bo: NewBackoff(t.RetryBase, t.RetryMax, t.retrySeed())}
		t.health[to] = h
	}
	h.fails++
	if h.fails >= t.FailThreshold {
		h.until = t.nowFn() + h.bo.Next()
	}
}

// PeerSuppressed reports whether sends to the peer are currently being
// suppressed (its streak reached FailThreshold and the window is open).
func (t *Transport) PeerSuppressed(to directory.PeerID) bool {
	if t.FailThreshold <= 0 {
		return false
	}
	t.healthMu.Lock()
	defer t.healthMu.Unlock()
	h, ok := t.health[to]
	return ok && h.fails >= t.FailThreshold && t.nowFn() < h.until
}

// withRetry runs op against a peer with the transport's per-send retry
// policy: suppressed peers fail fast, transient errors are retried up to
// Retries extra times with capped jittered backoff between attempts, and
// the final outcome updates the peer's health. RemoteErrors pass through
// unretried — the peer is alive.
func (t *Transport) withRetry(to directory.PeerID, op func() error) error {
	if err := t.admit(to); err != nil {
		return err
	}
	var bo *Backoff // built on the first retry: seeding its rng is ~5 KB of work
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		var remote *RemoteError
		if err == nil || errors.As(err, &remote) {
			break
		}
		if attempt >= t.Retries {
			break
		}
		t.m.retries.Inc()
		if bo == nil {
			bo = NewBackoff(t.RetryBase, t.RetryMax, t.retrySeed())
		}
		t.sleep(bo.Next())
	}
	t.noteResult(to, err)
	return err
}
