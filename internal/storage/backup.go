package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"aurora/internal/core"
	"aurora/internal/page"
)

// ErrBadSnapshot reports a corrupt or truncated snapshot.
var ErrBadSnapshot = errors.New("storage: malformed snapshot")

// snapshotMagic guards against restoring foreign blobs.
const snapshotMagic = uint32(0x41555253) // "AURS"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot serialises the segment's full durable state: materialized base
// pages, retained log records, CPL index and consistency points. It is the
// payload for both continuous backup to the object store (Figure 4 step 6)
// and peer-to-peer segment repair (§2.3).
func (n *Node) Snapshot() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.snapshotLocked()
}

func (n *Node) snapshotLocked() []byte {
	// The encoded size is known before a byte is written, so the buffer is
	// allocated once at exactly that size: grown from nil by doubling, a
	// snapshot of 4 KB pages allocates several times its own length, every
	// backup pass on every node.
	logBytes := 0
	for _, r := range n.log {
		logBytes += r.BodySize()
	}
	size := 4 + 4 + len(n.pages)*(8+1) + 2*4 + logBytes + 4 + 8*n.cpls.len() + 7*8
	for _, ps := range n.pages {
		size += len(ps.base)
	}
	buf := make([]byte, 0, size)
	put32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	put64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put32(snapshotMagic)

	// Pages, sorted for determinism.
	ids := make([]core.PageID, 0, len(n.pages))
	for id := range n.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	put32(uint32(len(ids)))
	for _, id := range ids {
		ps := n.pages[id]
		put64(uint64(id))
		if ps.base != nil {
			buf = append(buf, 1)
			buf = append(buf, ps.base...)
		} else {
			buf = append(buf, 0)
		}
	}

	// Records, by ascending LSN (the order the log keeps them in), as one
	// batch-style region: length, one CRC-32C, then the record bodies back
	// to back in the batch-body encoding.
	put32(uint32(logBytes))
	crcAt := len(buf)
	buf = buf[:crcAt+4+logBytes]
	region := buf[crcAt+4:]
	off := 0
	for _, r := range n.log {
		off += r.PutBody(region[off:])
	}
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.Checksum(region, castagnoli))

	// CPL index and points.
	put32(uint32(n.cpls.len()))
	n.cpls.each(func(c core.LSN) { put64(uint64(c)) })
	put64(uint64(n.vdl))
	put64(uint64(n.pgmrpl))
	put64(uint64(n.gcTail))
	put64(n.trunc.Epoch)
	put64(uint64(n.trunc.From))
	put64(uint64(n.trunc.To))
	put64(n.geomEpoch)
	return buf
}

// LoadSnapshot replaces the node's state with the snapshot contents. It is
// the restore half of backup and the receive half of repair.
func (n *Node) LoadSnapshot(buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.loadSnapshotLocked(buf)
}

func (n *Node) loadSnapshotLocked(buf []byte) error {
	off := 0
	need := func(k int) error {
		if len(buf)-off < k {
			return ErrBadSnapshot
		}
		return nil
	}
	get32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	get64 := func() (uint64, error) {
		if err := need(8); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}
	magic, err := get32()
	if err != nil || magic != snapshotMagic {
		return ErrBadSnapshot
	}

	pages := make(map[core.PageID]*pageState)

	nPages, err := get32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nPages; i++ {
		id, err := get64()
		if err != nil {
			return err
		}
		if err := need(1); err != nil {
			return err
		}
		hasBase := buf[off] == 1
		off++
		ps := &pageState{id: core.PageID(id)}
		if hasBase {
			if err := need(page.Size); err != nil {
				return err
			}
			ps.base = append(page.Page(nil), buf[off:off+page.Size]...)
			off += page.Size
		}
		pages[ps.id] = ps
	}

	logBytes, err := get32()
	if err != nil {
		return err
	}
	sum, err := get32()
	if err != nil {
		return err
	}
	if err := need(int(logBytes)); err != nil {
		return err
	}
	// Not a byte of the region is decoded before its checksum holds. The
	// records then decode against a private copy, as an ingested batch's do:
	// the caller's buffer is not the node's to keep.
	region := buf[off : off+int(logBytes)]
	off += len(region)
	if crc32.Checksum(region, castagnoli) != sum {
		return fmt.Errorf("%w: log region checksum mismatch", ErrBadSnapshot)
	}
	region = append([]byte(nil), region...)
	// A snapshot carries its records in ascending LSN order, so the log and
	// every chain are rebuilt by appending; one that does not is malformed.
	var log recordLog
	var dirty []*pageState
	for len(region) > 0 {
		r := new(core.Record)
		used, err := core.DecodeRecordInto(region, r)
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrBadSnapshot, len(log), err)
		}
		region = region[used:]
		if r.LSN <= log.highest() {
			return fmt.Errorf("%w: record %d: LSN %d not above its predecessor", ErrBadSnapshot, len(log), r.LSN)
		}
		log = append(log, r)
		if r.PageRecord() {
			ps := pages[r.Page]
			if ps == nil {
				ps = &pageState{id: r.Page}
				pages[r.Page] = ps
			}
			ps.chain = append(ps.chain, r)
			if !ps.listed {
				ps.listed = true
				dirty = append(dirty, ps)
			}
		}
	}

	nCPL, err := get32()
	if err != nil {
		return err
	}
	var cpls cplSet
	for i := uint32(0); i < nCPL; i++ {
		v, err := get64()
		if err != nil {
			return err
		}
		cpls.insert(core.LSN(v))
	}
	vdl, err := get64()
	if err != nil {
		return err
	}
	pgmrpl, err := get64()
	if err != nil {
		return err
	}
	gcTail, err := get64()
	if err != nil {
		return err
	}
	epoch, err := get64()
	if err != nil {
		return err
	}
	from, err := get64()
	if err != nil {
		return err
	}
	to, err := get64()
	if err != nil {
		return err
	}
	geomEpoch, err := get64()
	if err != nil {
		return err
	}

	// Rebuild the gap tracker: the retained log chains from the GC boundary
	// (everything at or below gcTail lives only in materialized pages and
	// was complete when coalesced).
	gaps := core.NewGapTracker(core.LSN(gcTail))
	for _, r := range log {
		gaps.Add(r.PrevLSN, r.LSN)
	}

	n.pages = pages
	n.log = log
	n.dirty = dirty
	n.cpls = cpls
	n.vdl = core.LSN(vdl)
	n.pgmrpl = core.LSN(pgmrpl)
	n.gcTail = core.LSN(gcTail)
	n.trunc = core.TruncationRange{Epoch: epoch, From: core.LSN(from), To: core.LSN(to)}
	n.geomEpoch = geomEpoch
	n.gaps = gaps
	n.wiped = false
	return nil
}

// BackupKey returns the object-store key for this segment's backups. Keys
// are namespaced by tenant volume so two tenants' PITR snapshots can never
// collide on a shared store.
func (n *Node) BackupKey() string {
	return fmt.Sprintf("vol%d/backup/pg%04d/seg%d", uint32(n.cfg.Vol), n.cfg.Seg.PG, n.cfg.Seg.Replica)
}

// BackupNow stages the segment's state to the object store (Figure 4
// step 6) and returns the stored version id, or 0 if no store is attached.
func (n *Node) BackupNow() int {
	if n.cfg.Store == nil || n.down.Load() {
		return 0
	}
	snap := n.Snapshot()
	if err := n.ssd.Read(len(snap)); err != nil {
		return 0
	}
	v := n.cfg.Store.Put(n.BackupKey(), snap)
	n.backups.Add(1)
	return v
}

// RestoreFromBackup loads the newest backup version from the object store.
func (n *Node) RestoreFromBackup() error {
	if n.cfg.Store == nil {
		return errors.New("storage: no object store attached")
	}
	snap, err := n.cfg.Store.Get(n.BackupKey())
	if err != nil {
		return err
	}
	if err := n.ssd.Write(len(snap)); err != nil {
		return err
	}
	return n.LoadSnapshot(snap)
}
