package core

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// This file is the allocation-free spine of the log hot path. The framer
// checks a size-classed arena out of a pool, encodes a whole commit group's
// batches into it contiguously (one Castagnoli pass per batch), and hands
// out a refcounted *FramedGroup whose FramedBatch entries are views into
// that arena. Senders retain the group per enqueued shipment and release
// after the replica acks (or the shipment is dropped); the group's creator
// holds one reference until the commit path is done with it. When the last
// reference drops, the arena and the group struct return to their pools.
//
// Byte-ownership contract:
//
//   - FramedBatch.Wire and every BatchView derived from it are views into
//     the group's arena. They are valid only while the viewer holds a group
//     reference. Anything that must outlive the reference (storage-node
//     retention, feed events) must copy.
//   - Release is forgiving: a group whose references are leaked is simply
//     reclaimed by the GC instead of recycled — never corrupted.

// Arena size classes. Groups are bounded by the commit pipeline
// (maxGroupRecs records, each record bounded by the page size), so the top
// class comfortably covers the largest group; larger requests fall back to
// an exact-size, unpooled buffer.
var arenaClasses = [...]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// arena is one reusable encode buffer. class indexes arenaClasses, or -1
// for an oversized one-shot buffer that is not returned to a pool.
type arena struct {
	b     []byte
	class int8
}

// framePool recycles arenas (by size class) and FramedGroup shells.
type framePool struct {
	arenas [len(arenaClasses)]sync.Pool
	groups sync.Pool
}

func (p *framePool) getArena(n int) *arena {
	for ci, size := range arenaClasses {
		if n <= size {
			if a, _ := p.arenas[ci].Get().(*arena); a != nil {
				return a
			}
			return &arena{b: make([]byte, size), class: int8(ci)}
		}
	}
	return &arena{b: make([]byte, n), class: -1}
}

func (p *framePool) getGroup() *FramedGroup {
	g, _ := p.groups.Get().(*FramedGroup)
	if g == nil {
		g = &FramedGroup{}
	}
	g.pool = p
	g.refs.Store(1) // the creator's reference
	return g
}

func (p *framePool) put(g *FramedGroup) {
	if g.arena != nil && g.arena.class >= 0 {
		p.arenas[g.arena.class].Put(g.arena)
	}
	g.arena = nil
	for i := range g.Batches {
		g.Batches[i] = FramedBatch{} // drop arena views
	}
	g.Batches = g.Batches[:0]
	g.CPLs = g.CPLs[:0]
	g.pool = nil
	p.groups.Put(g)
}

// FramedBatch is one per-PG batch of a framed group, already encoded: the
// IO flow batches fully ordered log records by destination PG and delivers
// each batch to every replica of that PG (§3.2). Epoch is the geometry epoch
// the batch was framed under; storage nodes reject batches framed under a
// superseded geometry (0 is unversioned and always accepted). Wire is the
// complete batch wire image (header + body) and aliases the group's arena:
// it is only valid while the holder has a group reference.
type FramedBatch struct {
	PG      PGID
	Vol     VolumeID
	Epoch   uint64
	First   LSN // lowest record LSN in the batch
	Last    LSN // highest record LSN in the batch
	Records int
	Wire    []byte
}

// View returns the batch's wire image as a BatchView (same aliasing rules
// as Wire).
func (b *FramedBatch) View() BatchView { return BatchView{b.Wire} }

// FramedGroup is the unit the framer emits and the senders ship: one arena
// holding every batch of one commit group, plus the per-MTR CPLs. It is
// reference-counted; see the ownership contract at the top of this file.
type FramedGroup struct {
	refs  atomic.Int32
	pool  *framePool
	arena *arena

	Batches []FramedBatch
	CPLs    []LSN // per-MTR consistency points, in group order
}

// Retain adds a reference. Each sender enqueue takes one; the matching
// Release happens when the shipment is acked, nacked, or dropped.
func (g *FramedGroup) Retain() { g.refs.Add(1) }

// Release drops a reference. When the last reference drops the arena and
// the group shell return to their pools; any view into the arena is invalid
// from that point on.
func (g *FramedGroup) Release() {
	if g.refs.Add(-1) == 0 {
		g.pool.put(g)
	}
}

// MaxCPL returns the highest CPL of the group (the group's overall
// durability point).
func (g *FramedGroup) MaxCPL() LSN {
	var max LSN
	for _, c := range g.CPLs {
		if c > max {
			max = c
		}
	}
	return max
}

// Batch wire format v2 (little endian). The batch is the unit of shipment
// and of checksumming: one CRC-32C covers the whole body, replacing the old
// per-record checksum pass.
//
//	u32 pg
//	u32 count      number of records in the body
//	u64 epoch      geometry epoch the batch was framed under
//	u32 vol        owning tenant volume
//	u64 firstLSN   lowest record LSN (ack bookkeeping without decoding)
//	u64 lastLSN    highest record LSN
//	u32 bodyLen
//	u32 crc        CRC-32C of the body
//	... body       count record bodies, back to back
const batchHeaderSize = 4 + 4 + 8 + 4 + 8 + 8 + 4 + 4

// Record body format (within a batch body; integrity is covered by the
// batch CRC, so record bodies carry no checksum of their own):
//
//	u32 total     body length including this field (recordBodySize + dataLen)
//	u64 lsn
//	u64 prevLSN
//	u8  type
//	u8  flags
//	u32 pg
//	u32 vol
//	u64 page
//	u64 txn
//	u32 offset
//	... data
const recordBodySize = 4 + 8 + 8 + 1 + 1 + 4 + 4 + 8 + 8 + 4

// BodySize returns the record's encoded size inside a batch body.
func (r *Record) BodySize() int { return recordBodySize + len(r.Data) }

// PutBody encodes r's body into b (len(b) >= r.BodySize()) and returns the
// bytes written. It is the only record encoder: batches carry bodies back to
// back under the batch CRC, and a storage snapshot carries its retained log
// the same way under one CRC of its own.
func (r *Record) PutBody(b []byte) int {
	total := recordBodySize + len(r.Data)
	binary.LittleEndian.PutUint32(b, uint32(total))
	binary.LittleEndian.PutUint64(b[4:], uint64(r.LSN))
	binary.LittleEndian.PutUint64(b[12:], uint64(r.PrevLSN))
	b[20] = byte(r.Type)
	b[21] = r.Flags
	binary.LittleEndian.PutUint32(b[22:], uint32(r.PG))
	binary.LittleEndian.PutUint32(b[26:], uint32(r.Vol))
	binary.LittleEndian.PutUint64(b[30:], uint64(r.Page))
	binary.LittleEndian.PutUint64(b[38:], r.Txn)
	binary.LittleEndian.PutUint32(b[46:], r.Offset)
	copy(b[recordBodySize:total], r.Data)
	return total
}

// DecodeRecordInto decodes one record body from the front of buf into *r
// without allocating: r.Data aliases buf. It returns the bytes consumed.
// Callers that retain the record past the life of buf must copy Data.
func DecodeRecordInto(buf []byte, r *Record) (int, error) {
	if len(buf) < recordBodySize {
		return 0, ErrShortBuffer
	}
	total := int(binary.LittleEndian.Uint32(buf))
	if total < recordBodySize {
		return 0, ErrBadLength
	}
	if len(buf) < total {
		return 0, ErrShortBuffer
	}
	r.LSN = LSN(binary.LittleEndian.Uint64(buf[4:]))
	r.PrevLSN = LSN(binary.LittleEndian.Uint64(buf[12:]))
	r.Type = RecordType(buf[20])
	r.Flags = buf[21]
	r.PG = PGID(binary.LittleEndian.Uint32(buf[22:]))
	r.Vol = VolumeID(binary.LittleEndian.Uint32(buf[26:]))
	r.Page = PageID(binary.LittleEndian.Uint64(buf[30:]))
	r.Txn = binary.LittleEndian.Uint64(buf[38:])
	r.Offset = binary.LittleEndian.Uint32(buf[46:])
	if r.Type == 0 || r.Type > RecCheckpointHint {
		return 0, ErrUnknownrecord
	}
	if total > recordBodySize {
		r.Data = buf[recordBodySize:total:total]
	} else {
		r.Data = nil
	}
	return total, nil
}

// BatchView is a zero-copy view over one encoded batch. It borrows the
// underlying buffer: a view derived from a FramedBatch is valid only while
// the group reference is held, and a view passed into storage ingest is
// valid only for the duration of the call.
type BatchView struct{ b []byte }

// ParseBatchView validates the framing of one batch at the front of buf
// (lengths only — call Verify for the checksum) and returns the view and
// the bytes consumed.
func ParseBatchView(buf []byte) (BatchView, int, error) {
	if len(buf) < batchHeaderSize {
		return BatchView{}, 0, ErrShortBuffer
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[36:]))
	total := batchHeaderSize + bodyLen
	if bodyLen < 0 || len(buf) < total {
		return BatchView{}, 0, ErrShortBuffer
	}
	return BatchView{buf[:total:total]}, total, nil
}

// PG returns the destination protection group.
func (v BatchView) PG() PGID { return PGID(binary.LittleEndian.Uint32(v.b)) }

// NumRecords returns the record count in the batch body.
func (v BatchView) NumRecords() int { return int(binary.LittleEndian.Uint32(v.b[4:])) }

// Epoch returns the geometry epoch the batch was framed under.
func (v BatchView) Epoch() uint64 { return binary.LittleEndian.Uint64(v.b[8:]) }

// Vol returns the owning tenant volume.
func (v BatchView) Vol() VolumeID { return VolumeID(binary.LittleEndian.Uint32(v.b[16:])) }

// First returns the lowest record LSN in the batch.
func (v BatchView) First() LSN { return LSN(binary.LittleEndian.Uint64(v.b[20:])) }

// Last returns the highest record LSN in the batch.
func (v BatchView) Last() LSN { return LSN(binary.LittleEndian.Uint64(v.b[28:])) }

// Len returns the total wire length of the batch.
func (v BatchView) Len() int { return len(v.b) }

// Bytes returns the full wire image (header + body). Borrowed, like the
// view itself.
func (v BatchView) Bytes() []byte { return v.b }

// Body returns the record-body region. Borrowed, like the view itself.
func (v BatchView) Body() []byte { return v.b[batchHeaderSize:] }

// Verify checks the batch body against the header CRC.
func (v BatchView) Verify() error {
	want := binary.LittleEndian.Uint32(v.b[40:])
	if crc32.Checksum(v.b[batchHeaderSize:], castagnoli) != want {
		return ErrBadChecksum
	}
	return nil
}

// EachRecord decodes the batch's records in order, calling fn with a record
// whose Data aliases the view's buffer. fn returning false stops the walk.
func (v BatchView) EachRecord(fn func(r *Record) bool) error {
	body := v.b[batchHeaderSize:]
	var r Record
	for i, n := 0, v.NumRecords(); i < n; i++ {
		consumed, err := DecodeRecordInto(body, &r)
		if err != nil {
			return err
		}
		body = body[consumed:]
		if !fn(&r) {
			return nil
		}
	}
	if len(body) != 0 {
		return ErrBadLength
	}
	return nil
}

// putBatchHeader writes the v2 batch header into b (len(b) >=
// batchHeaderSize); body is the encoded record region the header describes.
func putBatchHeader(b []byte, pg PGID, count int, epoch uint64, vol VolumeID, first, last LSN, body []byte) {
	binary.LittleEndian.PutUint32(b, uint32(pg))
	binary.LittleEndian.PutUint32(b[4:], uint32(count))
	binary.LittleEndian.PutUint64(b[8:], epoch)
	binary.LittleEndian.PutUint32(b[16:], uint32(vol))
	binary.LittleEndian.PutUint64(b[20:], uint64(first))
	binary.LittleEndian.PutUint64(b[28:], uint64(last))
	binary.LittleEndian.PutUint32(b[36:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[40:], crc32.Checksum(body, castagnoli))
}
