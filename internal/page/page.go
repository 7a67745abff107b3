// Package page defines the fixed-size database page format and the redo log
// applicator: the function that applies a log record to the before-image of
// a page to produce its after-image (§3.2). The same applicator runs in the
// engine's buffer cache (forward path), on storage nodes (background
// coalescing and on-demand materialization), and in read replicas.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"aurora/internal/core"
)

// Size is the page size in bytes. Aurora inherits InnoDB's fixed page size;
// the reproduction scales it to 4KiB to keep simulated volumes small.
const Size = 4096

// HeaderSize is the number of bytes reserved at the front of each page for
// the page LSN, checksum and page id. The remainder is payload.
const HeaderSize = 24

// PayloadSize is the number of usable bytes per page.
const PayloadSize = Size - HeaderSize

// Header layout:
//
//	[0:8)   pageLSN  — LSN of the latest log record applied to this page
//	[8:12)  crc      — CRC-32C over bytes [12:Size)
//	[12:20) pageID
//	[20:24) reserved
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the applicator.
var (
	ErrWrongPage     = errors.New("page: record addressed to a different page")
	ErrOutOfBounds   = errors.New("page: delta outside page payload")
	ErrStaleRecord   = errors.New("page: record LSN not newer than page LSN")
	ErrNotPageRecord = errors.New("page: record carries no page mutation")
	ErrBadSize       = errors.New("page: buffer is not a full page")
	ErrChecksum      = errors.New("page: checksum mismatch")
)

// Page is a fixed-size database page: header plus payload.
type Page []byte

// New returns a zeroed page carrying the given id.
func New(id core.PageID) Page {
	p := make(Page, Size)
	p.setID(id)
	return p
}

// Reset turns p, a full-size buffer holding anything, into what New(id)
// returns: the way a recycled buffer-cache frame becomes a fresh page.
func (p Page) Reset(id core.PageID) {
	clear(p)
	p.setID(id)
}

// LSN returns the page LSN: the LSN of the latest change applied.
func (p Page) LSN() core.LSN { return core.LSN(binary.LittleEndian.Uint64(p[0:8])) }

// SetLSN stamps the page LSN.
func (p Page) SetLSN(l core.LSN) { binary.LittleEndian.PutUint64(p[0:8], uint64(l)) }

// ID returns the page id stored in the header.
func (p Page) ID() core.PageID { return core.PageID(binary.LittleEndian.Uint64(p[12:20])) }

func (p Page) setID(id core.PageID) { binary.LittleEndian.PutUint64(p[12:20], uint64(id)) }

// Payload returns the mutable payload region of the page.
func (p Page) Payload() []byte { return p[HeaderSize:Size] }

// Clone returns an independent copy of the page.
func (p Page) Clone() Page { return append(Page(nil), p...) }

// UpdateChecksum recomputes and stores the page CRC. Storage nodes call this
// before persisting; the scrubber verifies it (Figure 4 step 8).
func (p Page) UpdateChecksum() {
	crc := crc32.Checksum(p[12:Size], castagnoli)
	binary.LittleEndian.PutUint32(p[8:12], crc)
}

// VerifyChecksum reports whether the stored CRC matches the page contents.
func (p Page) VerifyChecksum() error {
	if len(p) != Size {
		return ErrBadSize
	}
	crc := crc32.Checksum(p[12:Size], castagnoli)
	if crc != binary.LittleEndian.Uint32(p[8:12]) {
		return fmt.Errorf("%w: page %d", ErrChecksum, p.ID())
	}
	return nil
}

// Apply applies one redo record to the page in place, advancing the page
// LSN. Records whose LSN is not strictly greater than the page LSN are
// rejected as stale: the applicator is idempotent when driven from a chain
// because every chain LSN is distinct and increasing.
func (p Page) Apply(r *core.Record) error {
	if len(p) != Size {
		return ErrBadSize
	}
	if !r.PageRecord() {
		return ErrNotPageRecord
	}
	if r.Page != p.ID() {
		return fmt.Errorf("%w: record for %d, page is %d", ErrWrongPage, r.Page, p.ID())
	}
	if r.LSN <= p.LSN() {
		return fmt.Errorf("%w: record %d, page %d", ErrStaleRecord, r.LSN, p.LSN())
	}
	switch r.Type {
	case core.RecPageInit:
		if len(r.Data) > PayloadSize {
			return fmt.Errorf("%w: init image %d bytes", ErrOutOfBounds, len(r.Data))
		}
		payload := p.Payload()
		n := copy(payload, r.Data)
		for i := n; i < len(payload); i++ {
			payload[i] = 0
		}
	case core.RecPageDelta:
		end := int(r.Offset) + len(r.Data)
		if end > PayloadSize {
			return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, r.Offset, end, PayloadSize)
		}
		copy(p.Payload()[r.Offset:], r.Data)
	}
	p.SetLSN(r.LSN)
	return nil
}

// Materialize produces the version of the page as of readPoint by applying
// the chain of records (which must be sorted by ascending LSN) on top of
// base. base may be nil for a page whose chain begins with RecPageInit.
// Records already reflected in base and records beyond readPoint are
// skipped. The returned page is a fresh copy; base is not modified.
func Materialize(id core.PageID, base Page, chain []*core.Record, readPoint core.LSN) (Page, error) {
	var p Page
	if base != nil {
		if len(base) != Size {
			return nil, ErrBadSize
		}
		p = base.Clone()
	} else {
		p = New(id)
	}
	for _, r := range chain {
		if r.LSN > readPoint {
			break
		}
		if r.LSN <= p.LSN() {
			continue // already reflected in the base image
		}
		if err := p.Apply(r); err != nil {
			return nil, fmt.Errorf("materialize page %d at %d: %w", id, r.LSN, err)
		}
	}
	return p, nil
}

// DeltaRecord builds a page-delta record payload for the byte range
// [offset, offset+len(data)) of a page. It is a convenience for engine code
// and validates bounds eagerly so corruption is caught at generation time
// rather than at apply time on a storage node.
func DeltaRecord(pg core.PGID, id core.PageID, txn uint64, offset int, data []byte) (core.Record, error) {
	if offset < 0 || offset+len(data) > PayloadSize {
		return core.Record{}, fmt.Errorf("%w: [%d,%d)", ErrOutOfBounds, offset, offset+len(data))
	}
	return core.Record{
		Type: core.RecPageDelta, PG: pg, Page: id, Txn: txn,
		Offset: uint32(offset), Data: append([]byte(nil), data...),
	}, nil
}
