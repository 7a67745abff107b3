package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"aurora/internal/core"
	"aurora/internal/page"
)

// ErrBadSnapshot reports a corrupt or truncated snapshot or delta.
var ErrBadSnapshot = errors.New("storage: malformed snapshot")

// The magics guard against restoring foreign blobs and tell a segment's two
// kinds of backup object apart.
const (
	snapshotMagic = uint32(0x41555253) // "AURS": a full image
	deltaMagic    = uint32(0x41555244) // "AURD": the redo filed since the previous pass
)

// deltaHeaderSize is a delta's fixed prefix: magic, base image version, VDL,
// PGMRPL, geometry epoch, then its log region's length and checksum.
const deltaHeaderSize = 4 + 4*8 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot serialises the segment's full durable state: materialized base
// pages, retained log records, CPL index and consistency points. It is the
// full image of continuous backup to the object store (Figure 4 step 6) and
// the payload of peer-to-peer segment repair (§2.3).
func (n *Node) Snapshot() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.snapshotLocked()
}

// imageSizeLocked returns the encoded size of the segment's full image and
// of the record bodies in its log region. Both are known before a byte is
// written, so an image is one allocation of exactly its size (grown from nil
// by doubling, an image of 4 KB pages allocated several times its own length)
// and a backup pass weighs a delta against the image without encoding it.
func (n *Node) imageSizeLocked() (size, logBytes int) {
	logBytes = bodiesSize(n.log)
	size = 4 + 4 + len(n.pages)*(8+1) + 2*4 + logBytes + 4 + 8*n.cpls.len() + 7*8
	for _, ps := range n.pages {
		size += len(ps.base)
	}
	return size, logBytes
}

func (n *Node) snapshotLocked() []byte {
	size, logBytes := n.imageSizeLocked()
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

	// Records, by ascending LSN (the order the log keeps them in).
	buf = appendRegion(buf, n.log, logBytes)

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

// bodiesSize is the encoded size of recs' bodies.
func bodiesSize(recs []*core.Record) int {
	size := 0
	for _, r := range recs {
		size += r.BodySize()
	}
	return size
}

// appendRegion appends recs as one log region in the one record codec, the
// batch's: the bodies' length, one CRC-32C over them, then the bodies back to
// back. bodies is that length (bodiesSize) and buf has room for the region.
func appendRegion(buf []byte, recs []*core.Record, bodies int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodies))
	crcAt := len(buf)
	buf = buf[:crcAt+4+bodies]
	region := buf[crcAt+4:]
	off := 0
	for _, r := range recs {
		off += r.PutBody(region[off:])
	}
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.Checksum(region, castagnoli))
	return buf
}

// readRegion reads the log region at the front of buf and returns its bodies
// and the bytes it took. Not a byte of it is decoded before its checksum
// holds, and the bodies are a private copy, as an ingested batch's are: the
// caller's buffer is not the node's to keep.
func readRegion(buf []byte) (bodies []byte, used int, err error) {
	if len(buf) < 8 {
		return nil, 0, ErrBadSnapshot
	}
	size, sum := binary.LittleEndian.Uint32(buf), binary.LittleEndian.Uint32(buf[4:])
	if uint64(len(buf)-8) < uint64(size) {
		return nil, 0, ErrBadSnapshot
	}
	region := buf[8 : 8+int(size)]
	if crc32.Checksum(region, castagnoli) != sum {
		return nil, 0, fmt.Errorf("%w: log region checksum mismatch", ErrBadSnapshot)
	}
	return append([]byte(nil), region...), 8 + len(region), nil
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

	region, used, err := readRegion(buf[off:])
	if err != nil {
		return err
	}
	off += used
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
	n.dropStagedLocked()
	return nil
}

// deltaHeader is what a delta carries besides its records.
type deltaHeader struct {
	base        int // object-store version of the full image the delta extends
	vdl, pgmrpl core.LSN
	geomEpoch   uint64
}

// encodeDelta encodes the records of one pass, in filing order, as a delta
// on top of h.base. bodies is their bodiesSize.
func encodeDelta(h deltaHeader, recs []*core.Record, bodies int) []byte {
	buf := make([]byte, 0, deltaHeaderSize+bodies)
	buf = binary.LittleEndian.AppendUint32(buf, deltaMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.base))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.vdl))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.pgmrpl))
	buf = binary.LittleEndian.AppendUint64(buf, h.geomEpoch)
	return appendRegion(buf, recs, bodies)
}

// decodeDelta verifies and decodes a whole delta. The records are one slab
// whose Data fields alias a private copy of the region.
func decodeDelta(buf []byte) (deltaHeader, []core.Record, error) {
	const fixed = deltaHeaderSize - 8
	var h deltaHeader
	if len(buf) < fixed || binary.LittleEndian.Uint32(buf) != deltaMagic {
		return h, nil, ErrBadSnapshot
	}
	h.base = int(binary.LittleEndian.Uint64(buf[4:]))
	h.vdl = core.LSN(binary.LittleEndian.Uint64(buf[12:]))
	h.pgmrpl = core.LSN(binary.LittleEndian.Uint64(buf[20:]))
	h.geomEpoch = binary.LittleEndian.Uint64(buf[28:])
	region, used, err := readRegion(buf[fixed:])
	if err != nil {
		return h, nil, err
	}
	if fixed+used != len(buf) {
		return h, nil, fmt.Errorf("%w: %d bytes after the delta's log region", ErrBadSnapshot, len(buf)-fixed-used)
	}
	var recs []core.Record
	for len(region) > 0 {
		recs = append(recs, core.Record{})
		used, err := core.DecodeRecordInto(region, &recs[len(recs)-1])
		if err != nil {
			return h, nil, fmt.Errorf("%w: record %d: %v", ErrBadSnapshot, len(recs)-1, err)
		}
		region = region[used:]
	}
	return h, recs, nil
}

// DeltaBase reports whether a backup object is a delta and, if it is, the
// object-store version of the full image it extends.
func DeltaBase(obj []byte) (int, bool) {
	if len(obj) < 12 || binary.LittleEndian.Uint32(obj) != deltaMagic {
		return 0, false
	}
	return int(binary.LittleEndian.Uint64(obj[4:])), true
}

// loadDelta files a delta's records onto the node through the one filing
// path — duplicates, annulled and collected records are refused there, and an
// out-of-order one is sorted in — and folds in its consistency points and
// geometry epoch. The delta is verified and decoded whole before the node is
// touched, so a refused one changes nothing. Which image it belongs on is
// LoadBackup's business.
func (n *Node) loadDelta(buf []byte) error {
	h, recs, err := decodeDelta(buf)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.wiped {
		return fmt.Errorf("%s: %w", n.cfg.Node, ErrWipedSegment)
	}
	for i := range recs {
		if n.admitRecordLocked(&recs[i]) {
			n.fileLocked(&recs[i])
		}
	}
	n.observePointsLocked(h.vdl, h.pgmrpl)
	n.geomEpoch = max(n.geomEpoch, h.geomEpoch)
	return nil
}

// BackupKey returns the object-store key for this segment's backups. Keys
// are namespaced by tenant volume so two tenants' PITR snapshots can never
// collide on a shared store.
func (n *Node) BackupKey() string {
	return fmt.Sprintf("vol%d/backup/pg%04d/seg%d", uint32(n.cfg.Vol), n.cfg.Seg.PG, n.cfg.Seg.Replica)
}

// backupChain is what a node knows of its own backups: the version and size
// of its last full image, the delta bytes staged on top of it since, and the
// spare staging list a delta pass swaps in.
type backupChain struct {
	image      int
	imageBytes int
	deltaBytes int
	spare      []*core.Record
}

// dropStagedLocked records a change to the segment other than an append: the
// staging list no longer describes what changed since the last pass, so it is
// emptied and the next pass stages a full image.
func (n *Node) dropStagedLocked() {
	n.staging = false
	clear(n.staged)
	n.staged = n.staged[:0]
}

// BackupNow stages the segment to the object store (Figure 4 step 6) and
// returns the stored version id, or 0 if no store is attached or the pass
// failed.
//
// A pass stages a delta — the records filed since the previous pass, with
// the node's VDL, PGMRPL and geometry epoch, naming the full image it extends
// — unless it must stage the full image: there is none yet (a node starts
// with staging off); the segment changed by something other than an append
// since the last pass (Truncate, Wipe, LoadSnapshot and so RepairFrom, scrub
// repair: dropStagedLocked turns staging off); the delta would be at
// least as large as the image; or the deltas since the last image would add
// up to more than that image. So no pass stages more bytes than the full
// image would, and a restore replays at most one image's worth of redo per
// segment. The list is swapped under n.mu and the delta encoded outside it;
// an image is encoded under the lock, as coalescing folds bases in place.
func (n *Node) BackupNow() int {
	if n.cfg.Store == nil || n.down.Load() {
		return 0
	}
	n.backupMu.Lock()
	defer n.backupMu.Unlock()
	c := &n.chain

	n.mu.Lock()
	recs := n.staged
	bodies := bodiesSize(recs)
	imageBytes, _ := n.imageSizeLocked()
	deltaBytes := deltaHeaderSize + bodies
	full := !n.staging || deltaBytes >= imageBytes || c.deltaBytes+deltaBytes > c.imageBytes
	var obj []byte
	var h deltaHeader
	if full {
		obj = n.snapshotLocked()
		clear(recs)
		n.staged = recs[:0]
	} else {
		h = deltaHeader{base: c.image, vdl: n.vdl, pgmrpl: n.pgmrpl, geomEpoch: n.geomEpoch}
		n.staged = c.spare
	}
	n.staging = true
	n.mu.Unlock()

	if !full {
		obj = encodeDelta(h, recs, bodies)
		clear(recs)
		c.spare = recs[:0]
	}
	if err := n.ssd.Read(len(obj)); err != nil {
		// The pass is lost, and with it the records it took off the list:
		// only an image can cover them now.
		n.mu.Lock()
		n.dropStagedLocked()
		n.mu.Unlock()
		return 0
	}
	v := n.cfg.Store.Put(n.BackupKey(), obj)
	if full {
		c.image, c.imageBytes, c.deltaBytes = v, len(obj), 0
	} else {
		c.deltaBytes += len(obj)
	}
	n.backups.Add(1)
	return v
}

// LoadBackup replaces the node's state with its segment's backup as of asOf:
// the one reader of backups, behind point-in-time restore
// (volume.RestoreFleet). It takes the newest object at or before asOf; when
// that is a delta, it loads the full image the delta names and then every
// delta of that image up to and including the chosen one, in version order,
// through the one filing path. A key holds more than one chain when a
// restored clone backs up beside its source, so a delta naming another image
// is skipped. With no object at or before asOf the error wraps
// objstore.ErrNotFound.
func (n *Node) LoadBackup(asOf time.Time) error {
	store, key := n.cfg.Store, n.BackupKey()
	if store == nil {
		return errors.New("storage: no object store attached")
	}
	obj, last, err := store.GetAsOf(key, asOf)
	if err != nil {
		return err
	}
	base, isDelta := DeltaBase(obj)
	if !isDelta {
		return n.LoadSnapshot(obj)
	}
	if base < 1 || base >= last {
		return fmt.Errorf("%w: %s v%d names image v%d", ErrBadSnapshot, key, last, base)
	}
	img, err := store.GetVersion(key, base)
	if err != nil {
		return fmt.Errorf("%s: the image delta v%d extends: %w", key, last, err)
	}
	if err := n.LoadSnapshot(img); err != nil {
		return fmt.Errorf("%s v%d: %w", key, base, err)
	}
	for v := base + 1; v <= last; v++ {
		d := obj
		if v < last {
			if d, err = store.GetVersion(key, v); err != nil {
				return err
			}
		}
		if b, ok := DeltaBase(d); !ok || b != base {
			continue
		}
		if err := n.loadDelta(d); err != nil {
			return fmt.Errorf("%s v%d: %w", key, v, err)
		}
	}
	return nil
}
