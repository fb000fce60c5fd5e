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
// A checkout does not probe the socket. A conn the far side closed or lost
// (a restart, an idle reap on their end, a host crash) fails under its next
// exchange before any reply byte arrives, and the exchange is re-sent once
// on a fresh dial (Transport.exchangePooled): one rule for every request
// kind, safe because every kind is idempotent at its receiver.
package transport

import (
	"net"
	"sync"
	"time"
)

// pconn is one pooled connection: the conn, its byte counter, and its
// frame reader. recvMark is the byte count read before the current
// exchange, so gotRespByte can tell whether any reply byte arrived — which
// decides whether a failed exchange may be re-sent.
type pconn struct {
	conn net.Conn
	cc   *countingConn
	frameConn
	addr string

	idleSince time.Time
	recvMark  int64
}

func newPconn(conn net.Conn, addr string) *pconn {
	cc := &countingConn{Conn: conn}
	return &pconn{conn: conn, cc: cc, frameConn: newFrameConn(cc), addr: addr}
}

// beginExchange marks the start of a fresh exchange.
func (pc *pconn) beginExchange() { pc.recvMark = pc.cc.recv }

// gotRespByte reports whether any reply byte arrived for the current
// exchange.
func (pc *pconn) gotRespByte() bool { return pc.cc.recv > pc.recvMark }

// connPool keeps idle pconns keyed by dial address. A peer that moves is
// dialed at its new address, so conns pooled against the old one never
// carry another request; the socket alone retires a conn (a failed
// exchange, the caps and the reaper).
type connPool struct {
	t *Transport

	// mu is the pool's own lock (not Transport.mu: put runs inside the
	// RPC path and must not contend with accept/close bookkeeping).
	mu     sync.Mutex
	idle   map[string][]*pconn // per addr, oldest first
	total  int
	reapOn bool
	reaper *time.Timer
	closed bool
}

func newConnPool(t *Transport) *connPool {
	return &connPool{t: t, idle: make(map[string][]*pconn)}
}

// retire closes every idle conn pooled to addr, one of which just failed
// under an exchange: a peer that restarted without a FIN (a host crash)
// then costs one failed exchange, not one per pooled conn.
func (p *connPool) retire(addr string) {
	p.mu.Lock()
	dead := p.idle[addr]
	delete(p.idle, addr)
	p.total -= len(dead)
	p.t.m.poolIdleConns.Set(int64(p.total))
	p.mu.Unlock()
	for _, pc := range dead {
		pc.conn.Close()
		p.t.m.poolStale.Inc()
	}
}

// get checks out an idle conn for addr, newest first, discarding any with
// bytes buffered past its last reply (a desynced stream). Returns nil on a
// pool miss.
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
		if pc.br.Buffered() > 0 {
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
