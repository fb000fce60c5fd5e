// Frame codec: the transport's wire format, written by hand (DESIGN §4k).
//
//	[body length u32 big-endian][kind u8][flags u8][body]
//
// Flag bit 0 marks an error reply, whose body is Err alone; the other bits
// must be zero, so a stream in another format fails on its first frame.
// Each kind's body holds exactly the fields its sender sets and its
// receiver reads (codec.body). Integers are zigzag varints, lengths plain
// varints; strings and byte slices are length-prefixed; the gossip digest and
// floats take 8 fixed bytes; an optional pointer is a presence byte, then
// the value.
//
// Decoding trusts nothing: a header claiming more than maxFrameBody ends
// the stream before its body is read, the body buffer grows only as bytes
// arrive, every element count is checked against the bytes left before it
// sizes a slice or a map, and malformed input is an error, never a panic.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/replica"
	"planetp/internal/search"
)

const (
	frameHeader = 6
	// flagErr marks an error reply.
	flagErr = 1 << 0
	// maxFrameBody bounds a frame's body. It sits above the largest frame
	// the protocol sends: live anti-entropy pulls are unbatched, and a pull
	// of every record of a 1024-peer community, each carrying the paper's
	// 50 KB filter at its worst compressed size (≈ 53 KB), is ≈ 54 MB.
	maxFrameBody = 64 << 20
	// keepBuf is the largest read or write buffer a stream keeps between
	// frames, so one big pull does not pin its buffer on an idle conn.
	keepBuf = 64 << 10
)

var (
	errFrame     = errors.New("transport: malformed frame")
	errFrameSize = errors.New("transport: frame body exceeds the size bound")
)

// frameConn is one end of a framed stream: a buffered reader, a reused
// buffer each incoming body is read into, and one each outgoing frame is
// encoded into, then written from in one Write.
type frameConn struct {
	w          io.Writer
	br         *bufio.Reader
	rbuf, wbuf []byte
}

func newFrameConn(rw io.ReadWriter) frameConn {
	return frameConn{w: rw, br: bufio.NewReader(rw)}
}

// writeFrame encodes env and writes it.
func (f *frameConn) writeFrame(env *Envelope) error {
	b, err := appendFrame(f.wbuf[:0], env)
	if err == nil {
		_, err = f.w.Write(b)
	}
	f.wbuf = keep(b)
	return err
}

// readFrame reads the next frame into env, which it overwrites. A header
// claiming more than maxFrameBody or setting a reserved flag is an error
// before any of its body is read.
func (f *frameConn) readFrame(env *Envelope) error {
	hdr, err := f.br.Peek(frameHeader)
	if err != nil {
		return err
	}
	size, kind, flags := binary.BigEndian.Uint32(hdr), Kind(hdr[4]), hdr[5]
	if size > maxFrameBody || flags&^flagErr != 0 {
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
	var flags byte
	if env.Err != "" {
		flags = flagErr
	}
	c := codec{buf: append(b, 0, 0, 0, 0, byte(env.Kind), flags)}
	if flags != 0 {
		c.str(&env.Err)
	} else {
		c.body(env)
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
	err    error    // decoding's first error; buf is nil after it
	terms  []string // the TermFreqs keys the frame has named so far
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
			seq(c, &p.Keys, 1, c.str)
		})
	case KindBrokerGet, KindGetDoc:
		c.str(&env.Key)
	case KindBrokerWatch:
		num(c, &env.From)
		seq(c, &env.Terms, 1, c.str)
	case KindNotify:
		opt(c, &env.Snippet, c.snippet)
	case KindProxySearch:
		seq(c, &env.Terms, 1, c.str)
		num(c, &env.K)
	case KindPeerExchange, KindHotDocs:
		num(c, &env.K)
	case KindReplicaPut:
		c.str(&env.Key)
		c.str(&env.XML)
		num(c, &env.Origin)
		num(c, &env.Epoch)
	case KindReplicaPurge:
		c.str(&env.Key)
		num(c, &env.Origin)
		num(c, &env.Epoch)
	case KindQueryResp:
		seq(c, &env.Docs, 4, c.doc)
	case KindSnippets:
		seq(c, &env.Snips, 4, c.snippet)
	case KindDoc:
		c.str(&env.XML)
		c.bool(&env.Found)
	case KindRecordResp:
		opt(c, &env.Record, c.record)
	case KindProxyResp:
		seq(c, &env.Scored, 12, func(s *search.ScoredDoc) {
			c.doc(&s.DocResult)
			c.f64(&s.Score)
		})
	case KindPeers:
		seq(c, &env.Records, 8, c.record)
	case KindHotList:
		seq(c, &env.Hot, 11, func(h *replica.HotDoc) {
			c.str(&h.Key)
			num(c, &h.Origin)
			num(c, &h.Epoch)
			c.f64(&h.Score)
		})
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
	c.str(&s.ID)
	num(c, &s.Owner)
	c.str(&s.XML)
	seq(c, &s.Keys, 1, c.str)
}

func (c *codec) doc(d *search.DocResult) {
	num(c, &d.Peer)
	c.str(&d.Key)
	c.termFreqs(&d.TermFreqs)
	num(c, &d.DocLen)
}

// termFreqs walks one document's frequencies as (term, count) pairs.
func (c *codec) termFreqs(m *map[string]int) {
	n := c.length(len(*m), 2)
	if !c.decode {
		for t, f := range *m {
			c.term(&t)
			num(c, &f)
		}
		return
	}
	if n > 0 {
		*m = make(map[string]int, n)
	}
	for range n {
		var t string
		var f int
		c.term(&t)
		num(c, &f)
		(*m)[t] = f
	}
}

// term walks a TermFreqs key: 0 and the string the first time a frame
// names it, 1 + its index among the frame's earlier terms after that. A
// reply names a query's few terms in every document; this way each
// crosses the wire, and is allocated, once a frame.
func (c *codec) term(t *string) {
	if c.terms == nil {
		c.terms = make([]string, 0, 8)
	}
	var i int
	if !c.decode {
		i = slices.Index(c.terms, *t) + 1
	}
	num(c, &i)
	switch {
	case i == 0:
		c.str(t)
		c.terms = append(c.terms, *t)
	case i < 0 || i > len(c.terms):
		c.fail()
	case c.decode:
		*t = c.terms[i-1]
	}
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

// fail records a decoding error; every later read fails too.
func (c *codec) fail() {
	if c.err == nil {
		c.err = errFrame
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
