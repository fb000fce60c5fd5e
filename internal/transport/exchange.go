// Peer-exchange RPC: the live transport's side of bootstrap discovery.
// A joiner that knows only its seed asks it (and then anyone it learns
// about) for a bounded random sample of known-on-line records, applying
// them like anti-entropy pulls until the directory reaches the configured
// minimum. The reply is hard-bounded and sanitized before use — it
// crosses a trust boundary, so malformed records (absurd sample sizes,
// oversized addresses, junk versions) must die here, not inside the
// directory.
package transport

import (
	"planetp/internal/directory"
	"planetp/internal/gossip"
)

// MaxExchangeRecords is the hard upper bound on records in one
// peer-exchange reply, whatever the request asked for.
const MaxExchangeRecords = 64

// maxExchangeAddr bounds the Addr field of an exchanged record; a dialable
// host:port is far shorter, so anything bigger is garbage or an attack.
const maxExchangeAddr = 256

// clampExchange normalizes a requested sample size into [1,
// MaxExchangeRecords]. Applied server-side before touching the directory,
// so a hostile request cannot size an allocation.
func clampExchange(max int) int {
	if max < 1 {
		return 1
	}
	if max > MaxExchangeRecords {
		return MaxExchangeRecords
	}
	return max
}

// SanitizePeerSample validates a peer-exchange reply, returning at most
// max well-formed records. Records with a negative id, zero version, an
// empty or oversized address, negative sizes, or a Bloom payload (samples
// are payload-free by construction) are dropped; payloads on surviving
// records are stripped rather than trusted. The input slice is not
// modified.
func SanitizePeerSample(recs []directory.Record, max int) []directory.Record {
	max = clampExchange(max)
	if len(recs) > MaxExchangeRecords {
		recs = recs[:MaxExchangeRecords]
	}
	out := make([]directory.Record, 0, len(recs))
	for i := range recs {
		rec := recs[i]
		if rec.ID < 0 || rec.Ver.IsZero() {
			continue
		}
		if rec.Addr == "" || len(rec.Addr) > maxExchangeAddr {
			continue
		}
		if rec.PayloadSize < 0 || rec.DiffSize < 0 {
			continue
		}
		rec.Payload = nil
		out = append(out, rec)
		if len(out) == max {
			break
		}
	}
	return out
}

// PeerExchange asks peer to for a sample of at most max known-on-line
// records. The reply is sanitized before return.
func (t *Transport) PeerExchange(to directory.PeerID, max int) ([]directory.Record, error) {
	resp, err := t.call(to, &Envelope{Kind: KindPeerExchange, K: max})
	if err != nil {
		return nil, err
	}
	return SanitizePeerSample(resp.Records, max), nil
}

// PeerExchangeAddr is like PeerExchange but dials a raw address
// (bootstrap, before the seed is in the directory).
func (t *Transport) PeerExchangeAddr(addr string, max int) ([]directory.Record, error) {
	resp, err := t.callAddr(addr, &Envelope{Kind: KindPeerExchange, K: max})
	if err != nil {
		return nil, err
	}
	return SanitizePeerSample(resp.Records, max), nil
}

// ExchangePeers implements gossip.PeerExchanger, making the transport a
// discovery-capable Env: a gossip.Node configured with DiscoverMin pulls
// membership samples through this method.
func (t *Transport) ExchangePeers(to directory.PeerID, max int) ([]directory.Record, error) {
	return t.PeerExchange(to, max)
}

var _ gossip.PeerExchanger = (*Transport)(nil)
