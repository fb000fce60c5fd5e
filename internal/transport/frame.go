// Frame codec: the transport's wire format, written by hand (DESIGN §4k).
//
//	[body length u32 big-endian][kind u8][flags u8][body]
//
// Flag bit 1 marks this format and is set on every frame; bit 0 marks an
// error reply, whose body is Err alone. A frame without the mark, or with
// any other bit set, is malformed, so a stream in another format fails on
// its first frame rather than decoding a body it would misalign. Each
// kind's body holds exactly the fields its sender sets and its receiver
// reads (codec.body). Integers are zigzag varints, lengths plain varints;
// strings and byte slices are length-prefixed; the gossip digest and
// floats take 8 fixed bytes; an optional pointer is a presence byte, then
// the value. A field naming a document is a key (codec.key): an id in
// lowercase hex, as doc.HashID spells one, travels as its bytes. A broker
// put names the keys it files a snippet under by their indexes into the
// snippet's own keys (codec.filed).
//
// Decoding trusts nothing: a header claiming more than maxFrameBody ends
// the stream before its body is read, the body buffer grows only as bytes
// arrive, every element count is checked against the bytes left before it
// sizes a slice or a map, and malformed input is an error, never a panic.
package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/search"
)

const (
	frameHeader = 6
	// flagErr marks an error reply.
	flagErr = 1 << 0
	// flagFormat marks every frame of this format.
	flagFormat = 1 << 1
	// maxFrameBody bounds a frame's body. It sits above the largest frame
	// the protocol sends: live anti-entropy pulls are unbatched, and a pull
	// of every record of a 1024-peer community, each carrying the paper's
	// 50 KB filter at its worst compressed size (≈ 53 KB), is ≈ 54 MB.
	maxFrameBody = 64 << 20
	// keepBuf is the largest buffer a stream keeps between frames, or
	// frameBufs keeps for the next one, so one big pull does not pin its
	// buffer.
	keepBuf = 64 << 10
)

// ErrEncode reports a frame this side cannot encode: a put filing a snippet
// under a key outside its own, rows of unequal width, a body past the size
// bound. Nothing was sent, so the peer was neither reached nor missed.
var ErrEncode = errors.New("transport: frame fails to encode")

var (
	errFrame     = errors.New("transport: malformed frame")
	errFrameSize = fmt.Errorf("%w: its body exceeds the size bound", ErrEncode)
)

// frameConn is one end of a framed stream: a buffered reader, a reused
// buffer each incoming body is read into, and the writer frames go out on.
type frameConn struct {
	w    io.Writer
	br   *bufio.Reader
	rbuf []byte
}

func newFrameConn(rw io.ReadWriter) frameConn {
	return frameConn{w: rw, br: bufio.NewReader(rw)}
}

// writeFrame encodes env and writes it in one Write.
func (f *frameConn) writeFrame(env *Envelope) error {
	b, err := encodeFrame(env)
	if err == nil {
		_, err = f.w.Write(*b)
	}
	freeFrame(b)
	return err
}

// frameBufs recycles the buffers frames are encoded into, so no stream
// holds a write buffer between its frames.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeFrame encodes env into a buffer from frameBufs; hand the buffer
// back with freeFrame, whatever the error.
func encodeFrame(env *Envelope) (*[]byte, error) {
	b := frameBufs.Get().(*[]byte)
	var err error
	*b, err = appendFrame((*b)[:0], env)
	return b, err
}

// freeFrame returns an encodeFrame buffer to frameBufs.
func freeFrame(b *[]byte) {
	*b = keep(*b)
	frameBufs.Put(b)
}

// readFrame reads the next frame into env, which it overwrites. A header
// claiming more than maxFrameBody, lacking the format mark or setting a
// reserved flag is an error before any of its body is read.
func (f *frameConn) readFrame(env *Envelope) error {
	hdr, err := f.br.Peek(frameHeader)
	if err != nil {
		return err
	}
	size, kind, flags := binary.BigEndian.Uint32(hdr), Kind(hdr[4]), hdr[5]
	if size > maxFrameBody || flags&^flagErr != flagFormat {
		return errFrame
	}
	_, _ = f.br.Discard(frameHeader) // peeked: cannot fail
	body, err := readBody(f.br, f.rbuf, int(size))
	f.rbuf = keep(body)
	if err != nil {
		return err
	}
	return decodeBody(kind, flags, body, env)
}

// readBody reads an n-byte body into buf, growing it only as bytes arrive
// (to twice what arrived, or keepBuf): a header claiming more than its
// peer sends costs what was sent.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		buf = slices.Grow(buf, min(n-len(buf), max(len(buf), keepBuf)))
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// keep returns buf emptied for reuse, or nil when it is too large to keep.
func keep(buf []byte) []byte {
	if cap(buf) > keepBuf {
		return nil
	}
	return buf[:0]
}

// appendFrame appends env's frame to b.
func appendFrame(b []byte, env *Envelope) ([]byte, error) {
	start := len(b)
	flags := byte(flagFormat)
	if env.Err != "" {
		flags |= flagErr
	}
	c := codec{buf: append(b, 0, 0, 0, 0, byte(env.Kind), flags)}
	if flags&flagErr != 0 {
		c.str(&env.Err)
	} else {
		c.body(env)
	}
	if c.err != nil {
		return b[:start], c.err
	}
	n := len(c.buf) - start - frameHeader
	if n > maxFrameBody {
		return c.buf[:start], errFrameSize
	}
	binary.BigEndian.PutUint32(c.buf[start:], uint32(n))
	return c.buf, nil
}

// decodeBody decodes one frame's body into env, which it overwrites. The
// body must be consumed exactly.
func decodeBody(kind Kind, flags byte, body []byte, env *Envelope) error {
	*env = Envelope{Kind: kind}
	c := codec{buf: body, decode: true}
	if flags&flagErr != 0 {
		c.str(&env.Err)
		if env.Err == "" {
			c.fail()
		}
	} else {
		c.body(env)
	}
	if len(c.buf) != 0 {
		c.fail()
	}
	return c.err
}

// codec walks an Envelope in one direction. Encoding appends each field it
// is handed to buf; decoding consumes buf and overwrites the field. One
// walk per kind serves both directions, so they cannot disagree on a
// layout.
type codec struct {
	buf    []byte
	decode bool
	err    error // the first error; buf is nil after it
}

// body walks the fields env's kind carries. An unknown kind carries none,
// and its body is skipped.
func (c *codec) body(env *Envelope) {
	switch env.Kind {
	default:
		if c.decode {
			c.buf = nil
		}
	case KindRecord, KindAck:
	case KindGossip:
		num(c, &env.From)
		opt(c, &env.Gossip, c.gossip)
	case KindQuery:
		seq(c, &env.Terms, 1, c.str)
		c.bool(&env.All)
		num(c, &env.K)
		num(c, &env.N)
		seq(c, &env.Nt, 1, func(v *int) { num(c, v) })
	case KindBrokerPut:
		num(c, &env.Discard)
		seq(c, &env.Puts, 5, func(p *KeyedSnippet) {
			c.snippet(&p.Snippet)
			seq(c, &p.Keys, 1, func(k *string) { c.filed(k, p.Snippet.Keys) })
		})
	case KindBrokerGet:
		c.str(&env.Key)
	case KindGetDoc:
		c.key(&env.Key)
	case KindBrokerWatch:
		num(c, &env.From)
		seq(c, &env.Terms, 1, c.str)
	case KindNotify:
		opt(c, &env.Snippet, c.snippet)
	case KindProxySearch:
		seq(c, &env.Terms, 1, c.str)
		num(c, &env.K)
	case KindPeerExchange:
		num(c, &env.K)
	case KindReplicaPut:
		c.key(&env.Key)
		c.str(&env.XML)
		num(c, &env.Origin)
		num(c, &env.Epoch)
	case KindReplicaPurge:
		c.key(&env.Key)
		num(c, &env.Origin)
		num(c, &env.Epoch)
	case KindQueryResp:
		c.hits(&env.Hits)
	case KindSnippets:
		seq(c, &env.Snips, 4, c.snippet)
	case KindDoc:
		c.str(&env.XML)
		c.bool(&env.Found)
	case KindRecordResp:
		opt(c, &env.Record, c.record)
	case KindProxyResp:
		seq(c, &env.Scored, 11, func(s *search.ScoredDoc) {
			num(c, &s.Peer)
			c.key(&s.Key)
			num(c, &s.DocLen)
			c.f64(&s.Score)
		})
	case KindPeers:
		seq(c, &env.Records, 8, c.record)
	}
}

// gossip walks a gossip message: the fields its type carries, as the
// gossip node sets them.
func (c *codec) gossip(m *gossip.Message) {
	num(c, &m.Type)
	num(c, &m.From)
	switch m.Type {
	case gossip.MsgRumor:
		seq(c, &m.Updates, 8, c.record)
	case gossip.MsgRumorAck:
		seq(c, &m.Acked, 3, c.rumorID)
		seq(c, &m.Known, 1, c.bool)
		seq(c, &m.Recent, 3, c.rumorID)
	case gossip.MsgPull:
		seq(c, &m.Need, 3, func(n *directory.NeedEntry) {
			num(c, &n.ID)
			c.version(&n.Have)
		})
	case gossip.MsgRecords:
		seq(c, &m.Updates, 8, c.record)
		seq(c, &m.AsDiff, 1, c.bool)
	case gossip.MsgAERequest:
		c.u64(&m.Digest)
		num(c, &m.Cursor)
	case gossip.MsgAESummary:
		c.u64(&m.Digest)
		c.bool(&m.Identical)
		seq(c, &m.Summary, 2, c.version)
		num(c, &m.NumKnown)
		num(c, &m.SummaryFrom)
		num(c, &m.Next)
	}
}

func (c *codec) record(r *directory.Record) {
	num(c, &r.ID)
	c.version(&r.Ver)
	num(c, &r.Class)
	c.str(&r.Addr)
	num(c, &r.PayloadSize)
	num(c, &r.DiffSize)
	c.bytes(&r.Payload)
}

func (c *codec) version(v *directory.Version) {
	num(c, &v.Epoch)
	num(c, &v.Seq)
}

func (c *codec) rumorID(id *gossip.RumorID) {
	num(c, &id.Peer)
	c.version(&id.Ver)
}

func (c *codec) snippet(s *broker.Snippet) {
	c.key(&s.ID)
	num(c, &s.Owner)
	c.str(&s.XML)
	seq(c, &s.Keys, 1, c.str)
}

// hits walks a query reply's rows: the column count, then each
// document's key, |D| and one frequency a column. Every row has the first
// one's width. Decoded rows share one array (nil rows when there are no
// columns), and decoded keys are cut from one string, spelled out from the
// rows' key bytes: a reply's keys cost one allocation, not one each.
func (c *codec) hits(hs *[]search.Hit) {
	var cols uint64
	if len(*hs) > 0 {
		cols = uint64(len((*hs)[0].Freqs))
	}
	c.uvarint(&cols)
	if c.decode && cols > uint64(len(c.buf)) {
		c.fail()
		return
	}
	n := c.length(len(*hs), 2+int(cols))
	var freqs []uint32
	var keys strings.Builder
	if c.decode {
		*hs = nil
		if n > 0 {
			*hs = make([]search.Hit, n)
			keys.Grow(c.spelledKeys(n, int(cols)))
		}
		if n > 0 && cols > 0 {
			freqs = make([]uint32, n*int(cols))
		}
	}
	for i := range *hs {
		h := &(*hs)[i]
		if !c.decode {
			c.key(&h.Key)
		} else {
			at := keys.Len()
			raw, packed := c.keyBytes()
			spell(&keys, raw, packed)
			h.Key = keys.String()[at:]
		}
		num(c, &h.DocLen)
		if c.decode {
			h.Freqs = freqs[i*int(cols) : (i+1)*int(cols) : (i+1)*int(cols)]
		} else if len(h.Freqs) != int(cols) {
			c.fail()
			return
		}
		for j, f := range h.Freqs {
			x := uint64(f)
			c.uvarint(&x)
			if x > math.MaxUint32 {
				c.fail()
			} else if c.decode {
				h.Freqs[j] = uint32(x)
			}
		}
	}
}

// spelledKeys reads ahead, on a copy of c, how many bytes the keys of the
// next n rows of cols frequencies spell out to.
func (c codec) spelledKeys(n, cols int) int {
	total := 0
	for range n {
		total += spelled(c.keyBytes())
		// Skip |D| and the frequencies: 1+cols varints, each ending at
		// its first byte below 0x80.
		for ends := 0; ends <= cols && len(c.buf) > 0; c.buf = c.buf[1:] {
			if c.buf[0] < 0x80 {
				ends++
			}
		}
	}
	return total
}

// key walks a string naming a document. One of even, non-zero length in
// lowercase hex, as doc.HashID spells an id, travels packed: a length
// prefix uvarint(len/2<<1 | 1), then the bytes it spells. Any other
// string travels as uvarint(len<<1), then its own bytes. A decoded packed
// key is spelled back in lowercase hex, so every key round-trips exactly.
func (c *codec) key(v *string) {
	if !c.decode {
		c.putKey(*v)
		return
	}
	raw, packed := c.keyBytes()
	var sb strings.Builder
	sb.Grow(spelled(raw, packed))
	spell(&sb, raw, packed)
	*v = sb.String()
}

// putKey appends s as a key, hex-decoding a packed one straight into buf.
func (c *codec) putKey(s string) {
	if len(s) > 0 && len(s)%2 == 0 {
		if b, ok := appendUnhex(binary.AppendUvarint(c.buf, uint64(len(s)/2)<<1|1), s); ok {
			c.buf = b
			return
		}
	}
	c.buf = binary.AppendUvarint(c.buf, uint64(len(s))<<1)
	c.buf = append(c.buf, s...)
}

// appendUnhex appends to b the bytes that s, of even length, spells in
// lowercase hex; it reports false at the first byte of s that is no such
// digit.
func appendUnhex(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i += 2 {
		hi, lo := unhex[s[i]], unhex[s[i+1]]
		if hi|lo > 0xf {
			return b, false
		}
		b = append(b, hi<<4|lo)
	}
	return b, true
}

// unhex maps each lowercase hex digit to its value, every other byte to
// 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, d := range "0123456789abcdef" {
		t[d] = byte(i)
	}
	return t
}()

// keyBytes consumes a key's prefix and wire bytes, reporting whether they
// are packed.
func (c *codec) keyBytes() (raw []byte, packed bool) {
	var x uint64
	c.uvarint(&x)
	if x>>1 > uint64(len(c.buf)) {
		c.fail()
		return nil, false
	}
	return c.take(int(x >> 1)), x&1 == 1
}

// spelled is the length of the string a key's wire bytes stand for.
func spelled(raw []byte, packed bool) int {
	if packed {
		return 2 * len(raw)
	}
	return len(raw)
}

// spell writes a key's wire bytes to sb as the string they stand for.
func spell(sb *strings.Builder, raw []byte, packed bool) {
	if !packed {
		sb.Write(raw)
		return
	}
	var chunk [64]byte // spelled on the stack, whatever the key's length
	for len(raw) > 0 {
		n := hex.Encode(chunk[:], raw[:min(len(raw), len(chunk)/2)])
		sb.Write(chunk[:n])
		raw = raw[n/2:]
	}
}

// filed walks a key a broker files a snippet under as its index into the
// snippet's keys. Encoding fails a key that is not among them; a decoded
// key shares the snippet's string.
func (c *codec) filed(k *string, keys []string) {
	var i uint64
	if !c.decode {
		i = uint64(slices.Index(keys, *k)) // -1 wraps past every index
	}
	c.uvarint(&i)
	if i >= uint64(len(keys)) {
		c.fail()
		return
	}
	*k = keys[i]
}

// seq walks a slice: its length, then each element. min is the fewest
// bytes an element encodes to. A decoded empty slice is nil.
func seq[T any](c *codec, s *[]T, min int, elem func(*T)) {
	n := c.length(len(*s), min)
	if c.decode {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// opt walks an optional value: a presence byte, then the value if present.
func opt[T any](c *codec, p **T, walk func(*T)) {
	present := *p != nil
	c.bool(&present)
	if !present {
		return
	}
	if c.decode {
		*p = new(T)
	}
	walk(*p)
}

// fail records the walk's first error, a malformed frame when decoding and
// ErrEncode when encoding; every later read fails too.
func (c *codec) fail() {
	if c.err == nil {
		c.err = errFrame
		if !c.decode {
			c.err = ErrEncode
		}
	}
	c.buf = nil
}

// take consumes n bytes of the body being decoded; it fails, returning
// nil, when fewer are left.
func (c *codec) take(n int) []byte {
	if len(c.buf) < n {
		c.fail()
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// length walks a length prefix. Decoding checks it against the bytes left,
// at least min of them an element, before anything is sized by it.
func (c *codec) length(n, min int) int {
	x := uint64(n)
	c.uvarint(&x)
	if c.decode && x > uint64(len(c.buf)/min) {
		c.fail()
		return 0
	}
	return int(x)
}

func (c *codec) uvarint(v *uint64) {
	if !c.decode {
		c.buf = binary.AppendUvarint(c.buf, *v)
	} else if x, n := binary.Uvarint(c.buf); n > 0 {
		*v, c.buf = x, c.buf[n:]
	} else {
		c.fail()
	}
}

// integer is every integer type a frame carries.
type integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint32
}

// num walks an integer as a zigzag varint (binary.AppendVarint's coding).
// A decoded value that does not fit T is malformed.
func num[T integer](c *codec, v *T) {
	x := int64(*v)
	u := uint64(x<<1) ^ uint64(x>>63)
	c.uvarint(&u)
	x = int64(u>>1) ^ -int64(u&1)
	if int64(T(x)) != x {
		c.fail()
	}
	*v = T(x)
}

func (c *codec) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	num(c, &b)
	if b > 1 {
		c.fail()
	}
	*v = b == 1
}

func (c *codec) u64(v *uint64) {
	if !c.decode {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// f64 walks a float. A decoded NaN is malformed: it would break every
// score ordering downstream.
func (c *codec) f64(v *float64) {
	x := math.Float64bits(*v)
	c.u64(&x)
	*v = math.Float64frombits(x)
	if c.decode && math.IsNaN(*v) {
		c.fail()
	}
}

func (c *codec) str(v *string) {
	n := c.length(len(*v), 1)
	if !c.decode {
		c.buf = append(c.buf, *v...)
	} else {
		*v = string(c.take(n))
	}
}

func (c *codec) bytes(v *[]byte) {
	n := c.length(len(*v), 1)
	if !c.decode {
		c.buf = append(c.buf, *v...)
	} else if n > 0 {
		*v = append([]byte(nil), c.take(n)...)
	}
}
