package store

import (
	"bytes"
	"testing"
)

// FuzzWALRecord feeds arbitrary bytes to the WAL record decoder (the
// exact code path recovery runs over a torn log): it must return a
// record or reject, never panic, never over-read, and anything it
// accepts must re-encode byte-identically.
func FuzzWALRecord(f *testing.F) {
	f.Add(encodeRecord(Op{Kind: OpPublish, Data: "<d>hello</d>", Epoch: 1, Seq: 2, LSN: 3}))
	f.Add(encodeRecord(Op{Kind: OpRemove, Data: "key-1", Epoch: 7, Seq: 0, LSN: 99}))
	f.Add(encodeRecord(Op{Kind: OpPublish, Data: "", Epoch: 0, Seq: 0, LSN: 1}))
	f.Add(encodeRecord(Op{Kind: OpReplicaPut, Data: "3 1 key-2\n<d>held</d>", Epoch: 2, Seq: 4, LSN: 6}))
	f.Add(encodeRecord(Op{Kind: OpReplicaDrop, Data: "1 1 key-2", Epoch: 2, Seq: 5, LSN: 7}))
	// A kind from a format this build does not know is a tear, not a
	// record: recovery stops there rather than guessing at its meaning.
	f.Add(encodeRecord(Op{Kind: OpReplicaDrop + 1, Data: "from the future", LSN: 8}))
	f.Add(encodeRecord(Op{Kind: 0, Data: "zero kind", LSN: 9}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile length prefix
	f.Add(append(encodeRecord(Op{Kind: OpPublish, Data: "torn", LSN: 5}), 0xde, 0xad))
	f.Fuzz(func(t *testing.T, buf []byte) {
		const maxRecord = 1 << 20
		op, n, err := decodeRecord(buf, maxRecord)
		if err != nil {
			return
		}
		if n < walRecordOverhead || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if opKindNames[op.Kind] == "" {
			t.Fatalf("accepted unknown kind %d", op.Kind)
		}
		if len(op.Data) > maxRecord {
			t.Fatalf("accepted %d-byte payload past the %d limit", len(op.Data), maxRecord)
		}
		// Round-trip: re-encoding what decoded must reproduce the bytes.
		if got := encodeRecord(op); !bytes.Equal(got, buf[:n]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", got, buf[:n])
		}
		// The scanner must agree with the single-record decoder.
		ops, validEnd, _ := scanWAL(buf, maxRecord, 0)
		if op.LSN > 0 && (len(ops) == 0 || ops[0] != op) {
			t.Fatalf("scanWAL disagrees with decodeRecord: %v vs %v", ops, op)
		}
		if validEnd > len(buf) {
			t.Fatalf("scanWAL consumed %d of %d bytes", validEnd, len(buf))
		}
	})
}
