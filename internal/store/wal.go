package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// WAL on-disk format. The file opens with a 4-byte magic; each record is
//
//	length  uint32 LE  — payload length in bytes
//	crc     uint32 LE  — CRC32C (Castagnoli) of the payload
//	payload:
//	  kind  byte       — one of the four OpKinds
//	  lsn   uint64 LE  — globally monotonic log sequence number
//	  epoch uint32 LE  — gossip version after the operation
//	  seq   uint32 LE
//	  data  bytes      — per kind, see OpKind
//
// A record is valid only if its length is in bounds, its CRC matches,
// its kind is known, and its LSN strictly exceeds the previous record's.
// Recovery reads records until the first violation and truncates the
// file there: everything before the tear is kept, everything after is
// unreachable anyway (appends are strictly ordered), so dropping it
// restores the longest consistent prefix.

// walMagic opens every WAL file (format version is the trailing digit).
var walMagic = []byte("PPW1")

// walRecordOverhead is the framing + fixed payload header size.
const walRecordOverhead = 4 + 4 + 1 + 8 + 4 + 4

// castagnoli is the CRC32C table (same polynomial storage systems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpKind distinguishes WAL operations.
type OpKind uint8

const (
	// OpPublish records a published document (Data = raw XML).
	OpPublish OpKind = 1
	// OpRemove records an unpublished document (Data = document key).
	OpRemove OpKind = 2
	// OpReplicaPut records an adopted replica and OpReplicaDrop a released
	// one (evicted, purged or tombstoned); internal/replica owns both Data
	// encodings.
	OpReplicaPut  OpKind = 3
	OpReplicaDrop OpKind = 4
)

var opKindNames = map[OpKind]string{
	OpPublish: "publish", OpRemove: "remove",
	OpReplicaPut: "replica-put", OpReplicaDrop: "replica-drop",
}

// Op is one logged operation. LSN is assigned by Append and populated on
// recovery; Epoch/Seq are the logging peer's own gossip version at the
// operation (for a replica record too — never the origin's), so recovery
// knows the highest version the dead incarnation could have announced.
type Op struct {
	Kind       OpKind
	Data       string
	Epoch, Seq uint32
	LSN        uint64
}

// encodeRecord frames one op into a WAL record.
func encodeRecord(op Op) []byte {
	return encodeRecordInto(nil, op)
}

// encodeRecordInto appends op's encoded record to dst (batch appends
// build one contiguous buffer for a single write call).
func encodeRecordInto(dst []byte, op Op) []byte {
	payloadLen := 1 + 8 + 4 + 4 + len(op.Data)
	start := len(dst)
	dst = append(dst, make([]byte, 8+payloadLen)...)
	buf := dst[start:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
	payload := buf[8:]
	payload[0] = byte(op.Kind)
	binary.LittleEndian.PutUint64(payload[1:9], op.LSN)
	binary.LittleEndian.PutUint32(payload[9:13], op.Epoch)
	binary.LittleEndian.PutUint32(payload[13:17], op.Seq)
	copy(payload[17:], op.Data)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	return dst
}

// errBadRecord marks a torn/corrupt record (recovery truncates there;
// it is not an I/O failure).
var errBadRecord = errors.New("store: torn or corrupt WAL record")

// decodeRecord parses the record at the head of buf. It returns the op
// and the total bytes consumed, or errBadRecord if the head is not a
// complete, checksummed, well-formed record.
func decodeRecord(buf []byte, maxRecord int) (Op, int, error) {
	if len(buf) < 8 {
		return Op{}, 0, errBadRecord
	}
	payloadLen := int(binary.LittleEndian.Uint32(buf[0:4]))
	if payloadLen < 17 || payloadLen > maxRecord || payloadLen > len(buf)-8 {
		return Op{}, 0, errBadRecord
	}
	payload := buf[8 : 8+payloadLen]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return Op{}, 0, errBadRecord
	}
	op := Op{
		Kind:  OpKind(payload[0]),
		LSN:   binary.LittleEndian.Uint64(payload[1:9]),
		Epoch: binary.LittleEndian.Uint32(payload[9:13]),
		Seq:   binary.LittleEndian.Uint32(payload[13:17]),
		Data:  string(payload[17:]),
	}
	if op.Kind < OpPublish || op.Kind > OpReplicaDrop {
		return Op{}, 0, errBadRecord
	}
	return op, 8 + payloadLen, nil
}

// scanWAL parses a WAL file body (after the magic): the valid record
// prefix, the byte offset where the valid prefix ends (relative to the
// start of data), and how many trailing bytes were dropped. lastLSN
// seeds the monotonicity check (0 for a fresh file).
func scanWAL(data []byte, maxRecord int, lastLSN uint64) (ops []Op, validEnd int, droppedBytes int) {
	off := 0
	for off < len(data) {
		op, n, err := decodeRecord(data[off:], maxRecord)
		if err != nil || op.LSN <= lastLSN {
			break
		}
		ops = append(ops, op)
		lastLSN = op.LSN
		off += n
	}
	return ops, off, len(data) - off
}

// String renders an op for logs.
func (op Op) String() string {
	return fmt.Sprintf("%s lsn=%d v%d.%d (%d bytes)", opKindNames[op.Kind], op.LSN, op.Epoch, op.Seq, len(op.Data))
}
