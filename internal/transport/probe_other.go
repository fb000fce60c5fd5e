//go:build !(linux || darwin || freebsd || netbsd || openbsd)

package transport

import "net"

// stalePeek: without a non-blocking raw-fd peek, staleness cannot be
// checked cheaply at checkout; assume fresh and let the transparent
// re-dial absorb dead conns mid-RPC.
type stalePeek struct{}

func newStalePeek(net.Conn) *stalePeek { return nil }

func (*stalePeek) check() bool { return false }
