package transport

import (
	"errors"
	"net"
	"sync"
	"time"
)

// killMode selects how a killableConn dies.
type killMode int

const (
	// killWrite tears the next write mid-stream: the first tornBytes
	// bytes reach the wire, the rest never do, and the write errors. The
	// request provably never decodes on the far side.
	killWrite killMode = iota
	// killRead lets writes through but fails every read after the next
	// write completes — the request was delivered, the response never
	// arrives.
	killRead
	// killMute swallows the next write and every one after it, reporting
	// success: the far side never sees the request, so it never answers,
	// and the exchange waits on the real connection until its deadline.
	killMute
)

// errKilled is what a killed connection's reads and writes return.
var errKilled = errors.New("connection killed")

// killableConn wraps a live connection so tests can kill it
// deterministically mid-RPC — the conn-level fate a pooled transport must
// survive. kill arms the failure; the mode decides whether the request
// write tears, the response read fails or the peer goes silent. In every
// mode the conn behaves normally until the armed exchange commits a write,
// so the failure lands mid-RPC, where the recovery paths live. Safe for
// concurrent use.
type killableConn struct {
	net.Conn
	mu       sync.Mutex
	armed    bool
	readDead bool
	mode     killMode
	torn     int
}

// kill arms the connection to fail. For killWrite, tornBytes of the next
// write still reach the wire (0 = nothing does) before the error; the
// other modes ignore it.
func (c *killableConn) kill(mode killMode, tornBytes int) {
	c.mu.Lock()
	c.armed, c.mode, c.torn = true, mode, tornBytes
	c.mu.Unlock()
}

func (c *killableConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	armed, mode, torn := c.armed, c.mode, c.torn
	if armed && mode != killMute {
		// The armed exchange is committing its request: reads are dead
		// from here on.
		c.readDead = true
	}
	c.mu.Unlock()
	switch {
	case !armed || mode == killRead:
		return c.Conn.Write(p)
	case mode == killMute:
		return len(p), nil
	}
	n := 0
	if torn > 0 && torn < len(p) {
		n, _ = c.Conn.Write(p[:torn])
	}
	return n, errKilled
}

func (c *killableConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.readDead
	c.mu.Unlock()
	if dead {
		return 0, errKilled
	}
	return c.Conn.Read(p)
}

// killableDial dials real TCP and wraps every conn in a killableConn,
// recording them so a test can tear a specific one mid-stream.
func killableDial(conns *[]*killableConn, mu *sync.Mutex) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		kc := &killableConn{Conn: c}
		mu.Lock()
		*conns = append(*conns, kc)
		mu.Unlock()
		return kc, nil
	}
}
