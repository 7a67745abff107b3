package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// RecordType discriminates the kinds of redo log records the engine emits.
type RecordType uint8

const (
	// RecPageDelta is the workhorse record: a byte-range delta to be applied
	// at Offset within the page identified by (PG, Page). Applying the
	// record to the before-image of the page produces its after-image.
	RecPageDelta RecordType = iota + 1
	// RecPageInit carries a full page image and establishes a new page
	// (or re-initialises an existing one, e.g. after a B+-tree split
	// allocates a fresh node).
	RecPageInit
	// RecTxnBegin is a metadata record marking the start of a transaction.
	// It carries no page payload; replicas use it to maintain their view of
	// transaction activity.
	RecTxnBegin
	// RecTxnCommit marks a transaction commit in the log stream. The commit
	// is durable once the VDL reaches the record's LSN.
	RecTxnCommit
	// RecTxnAbort marks a transaction rollback after its undo has been
	// applied (compensation records precede it as ordinary page deltas).
	RecTxnAbort
	// RecCheckpointHint is an advisory record the engine may emit so the
	// storage tier can prioritise coalescing of hot pages. It is never
	// required for correctness: the log is the database.
	RecCheckpointHint
)

func (t RecordType) String() string {
	switch t {
	case RecPageDelta:
		return "delta"
	case RecPageInit:
		return "init"
	case RecTxnBegin:
		return "begin"
	case RecTxnCommit:
		return "commit"
	case RecTxnAbort:
		return "abort"
	case RecCheckpointHint:
		return "ckpt-hint"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record flags.
const (
	// FlagCPL marks the record as a consistency point (the final record of a
	// mini-transaction). The VDL only ever advances to CPL-tagged LSNs.
	FlagCPL uint8 = 1 << iota
	// FlagPlaced marks a record whose PG was chosen deliberately by its
	// producer (the rebalancer's stripe-copy records, addressed to the
	// destination PG of a pending cutover). The framer's router leaves such
	// records alone instead of re-routing them through the current geometry.
	FlagPlaced
)

// Record is a single redo log record. Each record affects at most one page
// of one protection group and carries a backlink to the previous record of
// the same protection group, which storage nodes use to track segment
// completeness (SCL) and to gossip for holes.
type Record struct {
	LSN     LSN
	PrevLSN LSN // backlink: LSN of the previous record for the same PG
	Type    RecordType
	Flags   uint8
	PG      PGID
	Vol     VolumeID // owning tenant volume (0 = legacy single-tenant)
	Page    PageID
	Txn     uint64
	Offset  uint32 // byte offset within the page for RecPageDelta
	Data    []byte // delta bytes, full image, or nil for metadata records
}

// IsCPL reports whether the record closes a mini-transaction.
func (r *Record) IsCPL() bool { return r.Flags&FlagCPL != 0 }

// PageRecord reports whether the record carries a page mutation that the
// log applicator must apply (as opposed to transaction metadata).
func (r *Record) PageRecord() bool {
	return r.Type == RecPageDelta || r.Type == RecPageInit
}

// String renders a compact description for debugging.
func (r *Record) String() string {
	return fmt.Sprintf("%s@%d pg=%d page=%d prev=%d txn=%d cpl=%v len=%d",
		r.Type, r.LSN, r.PG, r.Page, r.PrevLSN, r.Txn, r.IsCPL(), len(r.Data))
}

// Standalone record wire format (little endian). This self-delimiting,
// self-checksummed codec is used where records travel outside a batch
// (backup snapshots). On the hot path records are encoded as bare bodies
// inside a batch, covered by one batch-level CRC — see arena.go.
//
//	u32 crc      CRC-32C of everything after this field
//	u32 length   total encoded length including crc and length fields
//	u64 lsn
//	u64 prevLSN
//	u8  type
//	u8  flags
//	u32 pg
//	u32 vol
//	u64 page
//	u64 txn
//	u32 offset
//	u32 dataLen
//	... data
const recordHeaderSize = 4 + 4 + 8 + 8 + 1 + 1 + 4 + 4 + 8 + 8 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by the decoder.
var (
	ErrShortBuffer   = errors.New("core: buffer too short for record")
	ErrBadChecksum   = errors.New("core: record checksum mismatch")
	ErrBadLength     = errors.New("core: record length field corrupt")
	ErrUnknownrecord = errors.New("core: unknown record type")
)

// EncodedSize returns the wire size of the record.
func (r *Record) EncodedSize() int { return recordHeaderSize + len(r.Data) }

// AppendEncode appends the wire encoding of r to buf and returns the
// extended slice. The encoding is self-delimiting and checksummed.
func (r *Record) AppendEncode(buf []byte) []byte {
	start := len(buf)
	total := r.EncodedSize()
	buf = append(buf, make([]byte, total)...)
	b := buf[start:]
	binary.LittleEndian.PutUint32(b[4:], uint32(total))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.LSN))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.PrevLSN))
	b[24] = byte(r.Type)
	b[25] = r.Flags
	binary.LittleEndian.PutUint32(b[26:], uint32(r.PG))
	binary.LittleEndian.PutUint32(b[30:], uint32(r.Vol))
	binary.LittleEndian.PutUint64(b[34:], uint64(r.Page))
	binary.LittleEndian.PutUint64(b[42:], r.Txn)
	binary.LittleEndian.PutUint32(b[50:], r.Offset)
	binary.LittleEndian.PutUint32(b[54:], uint32(len(r.Data)))
	copy(b[recordHeaderSize:], r.Data)
	crc := crc32.Checksum(b[4:], castagnoli)
	binary.LittleEndian.PutUint32(b, crc)
	return buf
}

// DecodeRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed. The returned record's Data
// aliases buf; callers that retain records past the life of buf must copy.
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < recordHeaderSize {
		return Record{}, 0, ErrShortBuffer
	}
	total := int(binary.LittleEndian.Uint32(buf[4:]))
	if total < recordHeaderSize {
		return Record{}, 0, ErrBadLength
	}
	if len(buf) < total {
		return Record{}, 0, ErrShortBuffer
	}
	if crc := crc32.Checksum(buf[4:total], castagnoli); crc != binary.LittleEndian.Uint32(buf) {
		return Record{}, 0, ErrBadChecksum
	}
	dataLen := int(binary.LittleEndian.Uint32(buf[54:]))
	if recordHeaderSize+dataLen != total {
		return Record{}, 0, ErrBadLength
	}
	r := Record{
		LSN:     LSN(binary.LittleEndian.Uint64(buf[8:])),
		PrevLSN: LSN(binary.LittleEndian.Uint64(buf[16:])),
		Type:    RecordType(buf[24]),
		Flags:   buf[25],
		PG:      PGID(binary.LittleEndian.Uint32(buf[26:])),
		Vol:     VolumeID(binary.LittleEndian.Uint32(buf[30:])),
		Page:    PageID(binary.LittleEndian.Uint64(buf[34:])),
		Txn:     binary.LittleEndian.Uint64(buf[42:]),
		Offset:  binary.LittleEndian.Uint32(buf[50:]),
	}
	if r.Type == 0 || r.Type > RecCheckpointHint {
		return Record{}, 0, ErrUnknownrecord
	}
	if dataLen > 0 {
		r.Data = buf[recordHeaderSize:total]
	}
	return r, total, nil
}

// Clone returns a deep copy of the record (Data included) so it can be
// retained independently of any decode buffer.
func (r *Record) Clone() Record {
	c := *r
	if len(r.Data) > 0 {
		c.Data = append([]byte(nil), r.Data...)
	}
	return c
}
