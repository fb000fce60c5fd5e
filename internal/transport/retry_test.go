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

// A node of the previous protocol still sends its hoard pull: kind byte 18,
// now reserved, with a body of K. The frame is answered with the "unknown
// kind" error reply on an intact stream, so that sender's pool keeps the
// conn, and the call returns a RemoteError, which core's contact rule
// counts as an answer, not a strike (core's TestOneVerdictOnReachability).
func TestRetiredHotDocsAnsweredUnknownKind(t *testing.T) {
	ta, reg, tb, _ := pairReg(t)
	const hotDocs = Kind(18)
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(retiredFrames[0]); err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn)
	var resp Envelope
	if err := fc.readFrame(&resp); err != nil || resp.Kind != hotDocs || resp.Err != "unknown kind" {
		t.Fatalf("reply to a hot_docs frame = %+v, %v; want the unknown-kind error", resp, err)
	}
	if err := fc.writeFrame(&Envelope{Kind: KindRecord}); err != nil {
		t.Fatal(err)
	}
	if err := fc.readFrame(&resp); err != nil || resp.Kind != KindRecordResp {
		t.Fatalf("the stream after the error reply answered %+v, %v", resp, err)
	}

	_, err = ta.call(1, &Envelope{Kind: hotDocs, K: 8})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if _, err := ta.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if dials, reuse := snap.Get("transport_dials_total"), snap.Get("transport_pool_reuse_total"); dials != 1 || reuse != 1 {
		t.Fatalf("dials %d, reuse %d; want 1 and 1 (the conn went back to the pool)", dials, reuse)
	}
}
