// Client-side connection pool. Pooled connections carry long-lived framed
// streams, so a reused conn skips the dial round-trip — the per-RPC cost
// that dominates small exchanges (gossip pushes, query fan-out legs).
//
// The pool holds only idle connections: a checkout transfers ownership to
// the caller, who either returns the conn with put (stream still in a
// clean frame boundary) or closes it. Retention is bounded three ways —
// per-address (poolConns), across all addresses (poolMaxIdle, oldest-idle
// evicted first), and by idle age (poolIdle, swept by a timer-driven reaper).
//
// A checkout re-validates the conn with a zero-cost staleness probe: a
// read with an already-expired deadline. A healthy idle conn has nothing
// buffered, so the read returns a timeout; a conn the far side closed
// (server restart, idle reap on their end) returns EOF or buffered bytes
// immediately and is discarded before it can eat an RPC.
package transport

import (
	"net"
	"sync"
	"time"

	"planetp/internal/directory"
)

// pconn is one pooled connection: the conn, its byte counter, and its
// frame buffers. The mark fields record how far the current exchange
// progressed, which decides whether a failed RPC can be transparently
// re-dialed without risking double delivery.
type pconn struct {
	conn net.Conn
	cc   *countingConn
	frameConn
	addr string

	idleSince time.Time

	// wroteReq: the current exchange's request was fully written to
	// the stream. recvMark: bytes read before the current exchange, so
	// gotRespByte can tell whether any response byte arrived.
	wroteReq bool
	recvMark int64
}

func newPconn(conn net.Conn, addr string) *pconn {
	cc := &countingConn{Conn: conn}
	return &pconn{conn: conn, cc: cc, frameConn: newFrameConn(cc), addr: addr}
}

// beginExchange resets the delivery marks for a fresh RPC.
func (pc *pconn) beginExchange() {
	pc.wroteReq = false
	pc.recvMark = pc.cc.recv
}

// gotRespByte reports whether any response byte arrived for the current
// exchange.
func (pc *pconn) gotRespByte() bool { return pc.cc.recv > pc.recvMark }

// undelivered reports whether the current exchange's request provably
// never took effect at the peer, making one transparent re-dial safe. For
// oneways that means the request write itself failed — a torn request
// never decodes server-side, so it was not delivered. For calls it means
// zero response bytes arrived; the request may have executed, but every
// call kind is an idempotent read, so re-asking is harmless.
func (pc *pconn) undelivered(oneway bool) bool {
	if oneway {
		return !pc.wroteReq
	}
	return !pc.gotRespByte()
}

// stale probes an idle conn for death with a non-blocking socket peek
// (see connStale in probe_unix.go); bytes already buffered past the last
// reply mean the stream desynced. A dead conn discarded here never costs
// an RPC; one that slips through is absorbed by the transparent re-dial.
func (pc *pconn) stale() bool { return pc.br.Buffered() > 0 || connStale(pc.conn) }

// connPool keeps idle pconns keyed by dial address. lastAddr remembers
// which address each peer's conns were pooled against, so a directory
// address change (rejoin on a new port, incarnation bump) invalidates the
// now-orphaned conns instead of leaving them to fail an RPC first.
type connPool struct {
	t *Transport

	// mu is the pool's own lock (not Transport.mu: put runs inside the
	// RPC path and must not contend with accept/close bookkeeping).
	mu       sync.Mutex
	idle     map[string][]*pconn // per addr, oldest first
	total    int
	lastAddr map[directory.PeerID]string
	reapOn   bool
	reaper   *time.Timer
	closed   bool
}

func newConnPool(t *Transport) *connPool {
	return &connPool{
		t:        t,
		idle:     make(map[string][]*pconn),
		lastAddr: make(map[directory.PeerID]string),
	}
}

// noteAddr records that to resolves to addr, discarding conns pooled
// against a previous address for the same peer.
func (p *connPool) noteAddr(to directory.PeerID, addr string) {
	p.mu.Lock()
	prev, ok := p.lastAddr[to]
	p.lastAddr[to] = addr
	if !ok || prev == addr {
		p.mu.Unlock()
		return
	}
	orphans := p.idle[prev]
	delete(p.idle, prev)
	p.total -= len(orphans)
	p.t.m.poolIdleConns.Set(int64(p.total))
	p.mu.Unlock()
	for _, pc := range orphans {
		pc.conn.Close()
		p.t.m.poolStale.Inc()
	}
}

// InvalidatePeer drops every pooled conn for a peer. Core calls this when
// the directory supersedes or evicts the peer's record (incarnation bump,
// address change, declared dead): the pooled streams point at a previous
// life of the peer and must not carry another RPC.
func (t *Transport) InvalidatePeer(id directory.PeerID) {
	p := t.pool
	p.mu.Lock()
	addr, ok := p.lastAddr[id]
	if ok {
		delete(p.lastAddr, id)
	}
	var orphans []*pconn
	if ok {
		orphans = p.idle[addr]
		delete(p.idle, addr)
		p.total -= len(orphans)
		p.t.m.poolIdleConns.Set(int64(p.total))
	}
	p.mu.Unlock()
	for _, pc := range orphans {
		pc.conn.Close()
		p.t.m.poolStale.Inc()
	}
}

// get checks out an idle conn for addr, newest first, discarding stale
// ones. Returns nil on a pool miss.
func (p *connPool) get(addr string) *pconn {
	for {
		p.mu.Lock()
		list := p.idle[addr]
		if len(list) == 0 {
			p.mu.Unlock()
			return nil
		}
		pc := list[len(list)-1]
		if len(list) == 1 {
			delete(p.idle, addr)
		} else {
			p.idle[addr] = list[:len(list)-1]
		}
		p.total--
		p.t.m.poolIdleConns.Set(int64(p.total))
		p.mu.Unlock()
		if pc.stale() {
			pc.conn.Close()
			p.t.m.poolStale.Inc()
			continue
		}
		p.t.m.poolReuse.Inc()
		return pc
	}
}

// put returns a healthy conn to the pool, enforcing the per-address and
// global caps (oldest idle evicted first) and arming the idle reaper.
func (p *connPool) put(pc *pconn) {
	per, maxIdle := p.t.poolConns, p.t.poolMaxIdle
	pc.idleSince = time.Now()
	var evicted []*pconn
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.conn.Close()
		return
	}
	list := append(p.idle[pc.addr], pc)
	p.total++
	for len(list) > per {
		evicted, list = append(evicted, list[0]), list[1:]
		p.total--
	}
	p.idle[pc.addr] = list
	for p.total > maxIdle {
		old := p.evictOldestLocked()
		if old == nil {
			break
		}
		evicted = append(evicted, old)
	}
	p.t.m.poolIdleConns.Set(int64(p.total))
	p.armReaperLocked()
	p.mu.Unlock()
	for _, e := range evicted {
		e.conn.Close()
		p.t.m.poolEvicted.Inc()
	}
}

// evictOldestLocked removes the globally oldest idle conn (LRU across
// addresses; each per-addr list is oldest-first).
func (p *connPool) evictOldestLocked() *pconn {
	var oldAddr string
	var old *pconn
	for addr, list := range p.idle {
		if old == nil || list[0].idleSince.Before(old.idleSince) {
			old, oldAddr = list[0], addr
		}
	}
	if old == nil {
		return nil
	}
	if len(p.idle[oldAddr]) == 1 {
		delete(p.idle, oldAddr)
	} else {
		p.idle[oldAddr] = p.idle[oldAddr][1:]
	}
	p.total--
	return old
}

// armReaperLocked schedules the next idle sweep.
func (p *connPool) armReaperLocked() {
	if p.reapOn || p.closed || p.total == 0 {
		return
	}
	p.reapOn = true
	d := p.t.poolIdle/2 + time.Millisecond
	if p.reaper == nil {
		p.reaper = time.AfterFunc(d, p.reap)
	} else {
		p.reaper.Reset(d)
	}
}

// reap closes conns idle past poolIdle and re-arms while any remain.
func (p *connPool) reap() {
	cutoff := time.Now().Add(-p.t.poolIdle)
	var dead []*pconn
	p.mu.Lock()
	p.reapOn = false
	if p.closed {
		p.mu.Unlock()
		return
	}
	for addr, list := range p.idle {
		n := 0
		for n < len(list) && list[n].idleSince.Before(cutoff) {
			n++
		}
		if n == 0 {
			continue
		}
		dead = append(dead, list[:n]...)
		if n == len(list) {
			delete(p.idle, addr)
		} else {
			p.idle[addr] = append([]*pconn(nil), list[n:]...)
		}
		p.total -= n
	}
	p.t.m.poolIdleConns.Set(int64(p.total))
	p.armReaperLocked()
	p.mu.Unlock()
	for _, pc := range dead {
		pc.conn.Close()
		p.t.m.poolReaped.Inc()
	}
}

// closeAll shuts the pool down: every idle conn closed, the reaper
// stopped, later puts refused.
func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	if p.reaper != nil {
		p.reaper.Stop()
	}
	var all []*pconn
	for _, list := range p.idle {
		all = append(all, list...)
	}
	p.idle = make(map[string][]*pconn)
	p.total = 0
	p.t.m.poolIdleConns.Set(0)
	p.mu.Unlock()
	for _, pc := range all {
		pc.conn.Close()
	}
}
