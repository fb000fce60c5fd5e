package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// A RemoteError is returned once — the peer answered, so there is one dial
// and one exchange — and the stream it arrived on goes back to the pool.
func TestRemoteErrorNotRetriedAndCountsHealthy(t *testing.T) {
	ta, reg, _, _ := pairReg(t)
	var dials atomic.Int32
	ta.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
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
