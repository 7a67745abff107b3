package core

import (
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors surfaced by the decoders.
var (
	ErrShortBuffer   = errors.New("core: buffer too short for record")
	ErrBadChecksum   = errors.New("core: record checksum mismatch")
	ErrBadLength     = errors.New("core: record length field corrupt")
	ErrUnknownrecord = errors.New("core: unknown record type")
)

// Clone returns a deep copy of the record (Data included) so it can be
// retained independently of any decode buffer.
func (r *Record) Clone() Record {
	c := *r
	if len(r.Data) > 0 {
		c.Data = append([]byte(nil), r.Data...)
	}
	return c
}
