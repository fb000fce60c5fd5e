//go:build linux || darwin || freebsd || netbsd || openbsd

package transport

import (
	"net"
	"syscall"
)

// stalePeek peeks an idle pooled conn's socket without blocking
// (MSG_PEEK|MSG_DONTWAIT), one syscall a checkout: a healthy idle conn has
// nothing to read (EAGAIN); a conn the far side closed returns EOF
// immediately; stray bytes outside an exchange mean the stream desynced.
// Its raw conn and callback are made once per conn, in newStalePeek, so a
// checkout allocates nothing. Conns that expose no raw fd (test wrappers,
// synthetic fault conns) cannot be peeked and report not-stale — if such a
// conn is dead it is caught mid-RPC and absorbed by the transparent re-dial
// instead.
type stalePeek struct {
	rc     syscall.RawConn
	broken bool // the conn exposes an fd but no raw conn: always stale
	stale  bool
	buf    [1]byte
	peek   func(fd uintptr) bool
}

func newStalePeek(conn net.Conn) *stalePeek {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	s := &stalePeek{}
	rc, err := sc.SyscallConn()
	if err != nil {
		s.broken = true
		return s
	}
	s.rc = rc
	s.peek = func(fd uintptr) bool {
		n, _, err := syscall.Recvfrom(int(fd), s.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch {
		case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
			s.stale = false // healthy and quiet
		case err == nil && n == 0:
			s.stale = true // orderly EOF: the far side hung up
		default:
			s.stale = true // bytes outside an exchange, reset, or error
		}
		return true // one peek decides; never wait for readiness
	}
	return s
}

// check reports whether the conn is known-dead. A nil stalePeek (no raw
// fd) never is.
func (s *stalePeek) check() bool {
	if s == nil {
		return false
	}
	if s.broken {
		return true
	}
	s.stale = false
	err := s.rc.Read(s.peek)
	return s.stale || err != nil
}
