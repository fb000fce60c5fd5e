package gossip

import (
	"testing"

	"planetp/internal/directory"
)

// streamSetup builds two nodes in a 20-id space where b knows 18 synthetic
// members and a knows only b — the worst case for summary exchange — and
// shrinks the summary chunk to 4 ids for the test.
func streamSetup(t *testing.T) (*fakeNet, *Node, *Node) {
	t.Helper()
	old := summaryChunk
	summaryChunk = 4
	t.Cleanup(func() { summaryChunk = old })
	f := newFakeNet(5)
	a := f.addNode(0, 20, Config{})
	b := f.addNode(1, 20, Config{})
	for id := directory.PeerID(2); id < 20; id++ {
		b.Directory().Upsert(directory.Record{
			ID: id, Ver: directory.Version{Epoch: 1, Seq: uint32(id)},
			Class: directory.Fast, DiffSize: 100, PayloadSize: 1000,
		})
	}
	a.Directory().Upsert(b.SelfRecord())
	b.Directory().Upsert(a.SelfRecord())
	a.Quiesce()
	b.Quiesce()
	return f, a, b
}

// TestStreamingAEConverges: with a 4-id summary chunk, one anti-entropy
// exchange streams the whole 20-id space through continuation cursors and
// the requester ends up with every record.
func TestStreamingAEConverges(t *testing.T) {
	f, a, b := streamSetup(t)
	a.Tick() // AE round (no active rumors after Quiesce)

	if got, want := a.Directory().NumKnown(), 20; got != want {
		t.Fatalf("a knows %d records after streamed AE, want %d", got, want)
	}
	if a.Directory().Digest() != b.Directory().Digest() {
		t.Fatal("digests differ after streamed exchange")
	}

	// The exchange must actually have streamed: multiple bounded chunks
	// and continuation requests, never a full summary in one message.
	chunks, continuations := 0, 0
	for _, s := range f.sent {
		switch s.msg.Type {
		case MsgAESummary:
			if s.msg.Identical {
				continue
			}
			chunks++
			if len(s.msg.Summary) > 4 {
				t.Fatalf("summary message carries %d entries, chunk limit is 4", len(s.msg.Summary))
			}
			if s.msg.NumKnown > 4 {
				t.Fatalf("NumKnown %d exceeds chunk limit", s.msg.NumKnown)
			}
		case MsgAERequest:
			if s.msg.Cursor > 0 {
				continuations++
			}
		}
	}
	if chunks != 5 {
		t.Fatalf("chunks sent = %d, want 5 (20 ids / 4 per chunk)", chunks)
	}
	if continuations != 4 {
		t.Fatalf("continuation requests = %d, want 4", continuations)
	}
}

// TestStreamingAEIdenticalFastPath: converged directories still settle the
// exchange with one Identical reply — the stream never starts.
func TestStreamingAEIdenticalFastPath(t *testing.T) {
	f, a, b := streamSetup(t)
	a.Tick()
	before := len(f.sent)
	b.Receive(0, &Message{Type: MsgAERequest, From: 0, Digest: a.Directory().Digest()})
	reply := f.sent[len(f.sent)-1]
	if reply.msg.Type != MsgAESummary || !reply.msg.Identical {
		t.Fatalf("converged request answered with %+v, want Identical summary", reply.msg)
	}
	if len(f.sent) != before+1 {
		t.Fatalf("converged exchange sent %d messages, want 1", len(f.sent)-before)
	}
}

// TestStreamingAEWireAccounting: chunked replies charge per-chunk known
// counts plus the cursor fields; continuations charge the extra cursor.
func TestStreamingAEWireAccounting(t *testing.T) {
	s := DefaultSizes()
	full := &Message{Type: MsgAESummary, NumKnown: 20}
	if got, want := full.WireSize(s), s.Header+8+20*s.BFSummary; got != want {
		t.Fatalf("full summary wire = %d, want %d", got, want)
	}
	chunk := &Message{Type: MsgAESummary, NumKnown: 4, SummaryFrom: 8, Next: 12}
	if got, want := chunk.WireSize(s), s.Header+8+4*s.BFSummary+4; got != want {
		t.Fatalf("chunk wire = %d, want %d", got, want)
	}
	first := &Message{Type: MsgAESummary, NumKnown: 4, SummaryFrom: 0, Next: 4}
	if got, want := first.WireSize(s), s.Header+8+4*s.BFSummary+4; got != want {
		t.Fatalf("first chunk wire = %d, want %d", got, want)
	}
	req := &Message{Type: MsgAERequest}
	if got, want := req.WireSize(s), s.Header+8; got != want {
		t.Fatalf("request wire = %d, want %d", got, want)
	}
	cont := &Message{Type: MsgAERequest, Cursor: 12}
	if got, want := cont.WireSize(s), s.Header+8+4; got != want {
		t.Fatalf("continuation wire = %d, want %d", got, want)
	}
}
