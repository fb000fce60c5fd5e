package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Snapshot on-disk format:
//
//	magic   4 bytes  "PPS1"
//	epoch   uint32 LE — gossip version at snapshot time
//	seq     uint32 LE
//	lsn     uint64 LE — WAL position the snapshot folds through
//	length  uint64 LE — payload length
//	crc     uint32 LE — CRC32C of header[0:28] ++ payload
//	payload bytes     — opaque to the store (core's gob-encoded Snapshot)
//
// The CRC covers the header fields as well as the payload, so a bit flip
// in the version counters is as detectable as one in the data. Snapshots
// are written to a temp file, fsynced, and renamed into place; the
// displaced previous snapshot is kept as a fallback (snapshot.pps.prev)
// TOGETHER WITH the WAL generation it pairs with (wal.ppl.prev, rotated
// aside rather than discarded), so a corrupt current snapshot degrades
// to the prior snapshot plus a longer, gapless WAL replay across both
// generations instead of to data loss. Only if both snapshot
// generations are unreadable can state older than the previous fold be
// lost — and then the quarantined files still hold the bytes.

var snapMagic = []byte("PPS1")

const snapHeaderSize = 4 + 4 + 4 + 8 + 8 + 4

// Header describes a snapshot file's version counters: the durable
// record of the highest gossip version the writing incarnation could
// have announced as of the snapshot, and the WAL position it folds
// through. Recovery adopts the payload only if the decoded snapshot's
// counters match (see core's monotonicity validation).
type Header struct {
	Epoch, Seq uint32
	LSN        uint64
}

// snapshotHeader renders the header a snapshot file of payload starts
// with; the file is the header followed by the payload.
func snapshotHeader(hdr Header, payload []byte) []byte {
	buf := make([]byte, snapHeaderSize)
	copy(buf[0:4], snapMagic)
	binary.LittleEndian.PutUint32(buf[4:8], hdr.Epoch)
	binary.LittleEndian.PutUint32(buf[8:12], hdr.Seq)
	binary.LittleEndian.PutUint64(buf[12:20], hdr.LSN)
	binary.LittleEndian.PutUint64(buf[20:28], uint64(len(payload)))
	crc := crc32.Checksum(buf[0:28], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(buf[28:32], crc)
	return buf
}

// errBadSnapshot marks an unreadable snapshot file (quarantined, never
// deleted).
var errBadSnapshot = errors.New("store: corrupt snapshot file")

// maxSnapshotBytes bounds a snapshot payload read at recovery; a larger
// length is treated as corruption.
const maxSnapshotBytes = 256 << 20

// decodeSnapshot validates a snapshot file image and returns its header
// and payload.
func decodeSnapshot(buf []byte) (Header, []byte, error) {
	if len(buf) < snapHeaderSize || string(buf[0:4]) != string(snapMagic) {
		return Header{}, nil, errBadSnapshot
	}
	length := binary.LittleEndian.Uint64(buf[20:28])
	if length > maxSnapshotBytes || uint64(len(buf)-snapHeaderSize) < length {
		return Header{}, nil, errBadSnapshot
	}
	payload := buf[snapHeaderSize : snapHeaderSize+int(length)]
	crc := crc32.Checksum(buf[0:28], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(buf[28:32]) {
		return Header{}, nil, errBadSnapshot
	}
	hdr := Header{
		Epoch: binary.LittleEndian.Uint32(buf[4:8]),
		Seq:   binary.LittleEndian.Uint32(buf[8:12]),
		LSN:   binary.LittleEndian.Uint64(buf[12:20]),
	}
	return hdr, payload, nil
}
