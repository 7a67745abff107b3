// Package storage implements Aurora's multi-tenant scale-out storage
// service: the storage node that receives redo log batches, persists and
// acknowledges them in the foreground, and performs everything else —
// sorting and gap detection, peer-to-peer gossip, coalescing log records
// into materialized data pages, backup to the object store, garbage
// collection below the PGMRPL, and CRC scrubbing — continuously and
// asynchronously in the background (Figure 4, §3.3).
//
// The log is the database: a node's materialized pages are only a cache of
// log applications, and any read can be served by materializing the page's
// delta chain on demand at the requested read point.
package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/page"
	"aurora/internal/trace"
)

// Errors returned by node operations.
var (
	ErrNodeDown      = errors.New("storage: node down")
	ErrIncomplete    = errors.New("storage: segment not complete at read point")
	ErrNoSuchPage    = errors.New("storage: page never written")
	ErrStaleEpoch    = errors.New("storage: truncation epoch stale")
	ErrWipedSegment  = errors.New("storage: segment wiped, needs repair")
	ErrStaleGeometry = errors.New("storage: geometry epoch stale")
	// ErrCorruptPage is returned when a read finds the base image's CRC
	// invalid: the node refuses to serve bytes it cannot vouch for, the
	// client hedges to a peer replica, and the scrubber repairs the image
	// in the background — corruption is never observable, only slow.
	ErrCorruptPage = errors.New("storage: page checksum mismatch")
	// ErrWrongTier is returned when a page read reaches a log-tier replica
	// (Taurus split): log replicas only append, CRC, fsync and ack — they
	// never materialize pages, so the read must route to the page tier.
	ErrWrongTier = errors.New("storage: log-tier replica cannot serve page reads")
	// ErrWrongVolume is returned when a batch or record addressed to one
	// tenant volume reaches a segment owned by another. On a shared fleet
	// this is the tenancy boundary: a node vouches for exactly one
	// (volume, PG) and refuses everyone else's bytes outright.
	ErrWrongVolume = errors.New("storage: batch addressed to a different tenant volume")
)

// Config configures one storage node (one segment replica).
type Config struct {
	Seg  core.SegmentID
	Node netsim.NodeID
	AZ   netsim.AZ
	Net  *netsim.Network
	Disk disk.Config
	// Vol is the tenant volume this segment belongs to. Zero is the
	// single-tenant volume of a fleet that owns its nodes outright.
	Vol core.VolumeID
	// Host binds the node to a physical machine in a shared multi-tenant
	// fleet: the node adopts the host's network identity, AZ and SSD,
	// registers in its (volume, PG) segment registry, and runs foreground
	// traffic through its per-tenant QoS scheduler. Nil gives the node a
	// private, unshaped host built from Node, AZ, Net, Disk and Store — the
	// classic one-node-per-segment deployment.
	Host *Host
	// Store receives periodic backups; nil disables backup.
	Store *objstore.Store
	// BackupInterval controls background backup staging (Start); zero
	// selects 200 ms.
	BackupInterval time.Duration
	// Role selects what this replica does with the redo stream under a
	// role-split quorum (Taurus, PAPERS.md). The zero value RoleFull keeps
	// classic behavior: synchronous ingest, materialization, and reads.
	// RoleLog appends and acks but never materializes or serves pages;
	// its log is GC'd only once every peer has pulled it. RolePage is fed
	// asynchronously by gossip pull and catches up to a read point on
	// demand when its applied LSN trails it.
	Role core.ReplicaRole
}

// Background cadences (Start). A page replica's gossip pull IS its redo feed,
// not just hole repair: it sees no foreground batches, and its staleness is
// what read-time catch-up has to pay for, so it pulls on a much tighter
// cadence than the repair-oriented one; the no-op pre-check keeps idle rounds
// nearly free.
const (
	gossipInterval     = 20 * time.Millisecond
	pageGossipInterval = 5 * time.Millisecond
	coalesceInterval   = 20 * time.Millisecond
	scrubInterval      = 500 * time.Millisecond
)

// pageState is one page on the segment: an optional materialized base image
// plus the chain of not-yet-coalesced records sorted by ascending LSN.
type pageState struct {
	id    core.PageID
	base  page.Page
	chain []*core.Record
	// listed is set while the page is on the node's dirty list (chainInsertLocked).
	listed bool
}

// Stats is a snapshot of node activity counters.
type Stats struct {
	BatchesReceived uint64
	RecordsReceived uint64
	RecordsHeld     int
	PagesHeld       int
	GossipRounds    uint64
	RecordsGossiped uint64
	FeedBytes       uint64 // bytes pulled from peers (gossip + catch-up)
	PagesCoalesced  uint64
	RecordsGCed     uint64
	Backups         uint64
	ScrubsClean     uint64
	ScrubsRepaired  uint64
	Reads           uint64
	CorruptReads    uint64 // foreground reads refused on a base-image CRC mismatch
}

// Ack is the acknowledgement a node returns for a persisted batch. The
// writer uses the piggybacked SCL to maintain its runtime view of segment
// completeness for read routing (§4.2.3).
type Ack struct {
	Seg core.SegmentID
	SCL core.LSN
}

// Node is one storage node hosting one segment replica.
type Node struct {
	cfg Config
	ssd *disk.SSD

	mu    sync.Mutex
	log   recordLog // retained records for gossip/materialize, by ascending LSN
	pages map[core.PageID]*pageState
	// dirty lists the pages that have a chain, each once, so that a coalesce
	// round costs what changed and not what the node holds. A page enters it
	// when its chain goes non-empty (chainInsertLocked) and leaves when a
	// round cuts the chain empty (cutDirtyLocked); a chain emptied any other
	// way (Truncate, scrub repair) stays listed until the next round.
	dirty  []*pageState
	cpls   cplSet // CPL LSNs seen, trimmed below the GC tail (cpls.go)
	gaps   *core.GapTracker
	gcTail core.LSN // highest record LSN ever garbage collected
	trunc  core.TruncationRange
	pgmrpl core.LSN
	vdl    core.LSN // latest VDL learned from the writer (piggybacked)
	wiped  bool

	// geomEpoch is the highest geometry epoch the node has learned (from
	// batch piggybacks or an explicit ObserveGeometry push at a cutover).
	// Writes framed under an older geometry are rejected with
	// ErrStaleGeometry so a record can never land on a PG that no longer
	// owns its stripe; readers routing with an older table get the same
	// rejection and refetch the geometry. Epoch 0 is unversioned.
	geomEpoch uint64

	// Continuous backup (backup.go). While staging is set, fileLocked appends
	// every record it files to staged, so the next pass can stage them as a
	// delta; a change that is not an append (dropStagedLocked) clears both and
	// the next pass stages a full image. Only a pass sets staging and only a
	// node with a store runs one, so a node without a store keeps no list.
	staging bool
	staged  []*core.Record
	// backupMu serializes passes, so a delta always names the image before it.
	backupMu sync.Mutex
	chain    backupChain // guarded by backupMu

	peers []*Node

	down atomic.Bool
	// feedPaused stops the *background* gossip pull (the log→page feed in
	// a role split) without touching foreground traffic or the read-time
	// catch-up path — the chaos knob behind the pagestore-lag fault.
	feedPaused atomic.Bool

	// Background loops run under a root context created by Start and
	// canceled by Stop; every network send they issue observes it, so a
	// stopping node abandons in-flight gossip/repair waits immediately.
	runMu     sync.Mutex
	runCtx    context.Context
	runCancel context.CancelFunc
	stopped   sync.WaitGroup

	batches      atomic.Uint64
	records      atomic.Uint64
	gossips      atomic.Uint64
	gossiped     atomic.Uint64
	feedBytes    atomic.Uint64
	coalesces    atomic.Uint64
	gced         atomic.Uint64
	backups      atomic.Uint64
	scrubOK      atomic.Uint64
	scrubFix     atomic.Uint64
	reads        atomic.Uint64
	corruptReads atomic.Uint64
}

// NewNode creates a storage node on its host: it adopts the host's
// registered identity and shares its SSD, object store and QoS scheduler with
// every other segment on the machine — that sharing is what makes a pooled
// fleet multi-tenant rather than a set of dedicated nodes. Without cfg.Host
// the node gets a machine of its own.
func NewNode(cfg Config) *Node {
	if cfg.BackupInterval <= 0 {
		cfg.BackupInterval = 200 * time.Millisecond
	}
	if cfg.Host == nil {
		cfg.Host = NewHost(HostConfig{ID: cfg.Node, AZ: cfg.AZ, Net: cfg.Net, Disk: cfg.Disk, Store: cfg.Store})
	}
	h := cfg.Host
	cfg.Node = h.cfg.ID
	cfg.AZ = h.cfg.AZ
	if cfg.Store == nil {
		cfg.Store = h.cfg.Store
	}
	n := &Node{
		cfg:   cfg,
		ssd:   h.ssd,
		pages: make(map[core.PageID]*pageState),
		gaps:  core.NewGapTracker(core.ZeroLSN),
	}
	h.register(n)
	return n
}

// Vol returns the tenant volume this segment belongs to.
func (n *Node) Vol() core.VolumeID { return n.cfg.Vol }

// Host returns the physical machine the node lives on.
func (n *Node) Host() *Host { return n.cfg.Host }

// Detach removes the node from its host's segment registry (volume teardown
// or migration off the host).
func (n *Node) Detach() { n.cfg.Host.unregister(n) }

// qos returns the host's per-tenant scheduler.
func (n *Node) qos() *qos { return n.cfg.Host.qos }

// checkVol enforces the tenancy boundary on the foreground write path.
func (n *Node) checkVol(vol core.VolumeID) error {
	if vol != n.cfg.Vol {
		return fmt.Errorf("%s seg pg=%d owned by %s, batch from %s: %w",
			n.cfg.Node, n.cfg.Seg.PG, n.cfg.Vol, vol, ErrWrongVolume)
	}
	return nil
}

// Seg returns the segment identity this node hosts.
func (n *Node) Seg() core.SegmentID { return n.cfg.Seg }

// NodeID returns the node's network identity.
func (n *Node) NodeID() netsim.NodeID { return n.cfg.Node }

// AZ returns the availability zone the node lives in.
func (n *Node) AZ() netsim.AZ { return n.cfg.AZ }

// Role returns the replica's tier under a role-split quorum (RoleFull
// when the split is off).
func (n *Node) Role() core.ReplicaRole { return n.cfg.Role }

// PauseFeed pauses (or resumes) the node's background gossip pull — the
// log→page feed when this is a page replica. Foreground traffic and the
// read-time catch-up pull keep working; only the background loop idles,
// so a paused page replica falls ever further behind the durable tail.
func (n *Node) PauseFeed(paused bool) { n.feedPaused.Store(paused) }

// FeedBytes returns the bytes this node has ingested by pulling from
// peers (background gossip plus read-time catch-up). On a page replica
// this is the asynchronous log→page feed volume.
func (n *Node) FeedBytes() uint64 { return n.feedBytes.Load() }

// Disk exposes the node's SSD for fault injection.
func (n *Node) Disk() *disk.SSD { return n.ssd }

// SetPeers wires the node to the other replicas of its protection group.
func (n *Node) SetPeers(peers []*Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = nil
	for _, p := range peers {
		if p != n {
			n.peers = append(n.peers, p)
		}
	}
}

// Crash makes the node reject all traffic (a node reboot or failure). Its
// durable state — persisted log and pages — is retained for Restart.
func (n *Node) Crash() { n.down.Store(true) }

// Restart brings a crashed node back online.
func (n *Node) Restart() { n.down.Store(false) }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down.Load() }

// Wipe simulates permanent loss of the node's disk: all durable state is
// destroyed and the node refuses service until repaired from peers.
func (n *Node) Wipe() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.log = nil
	n.pages = make(map[core.PageID]*pageState)
	n.dirty = nil
	n.cpls = cplSet{}
	n.gaps = core.NewGapTracker(core.ZeroLSN)
	n.wiped = true
	n.dropStagedLocked()
}

// BatchResult is the per-batch outcome of one Ingest flight. A nil Err
// means the batch was persisted and filed; a non-nil Err is a
// NON-TRANSIENT rejection of just that batch (wrong volume, stale geometry
// epoch, corrupt wire bytes) that redelivery cannot fix — the sender nacks
// that batch's quorum tracker immediately instead of retrying the flight.
type BatchResult struct {
	PG      core.PGID
	Records int // records newly filed (duplicates excluded)
	Err     error
}

// Ingest is the foreground write path: steps (1) and (2) of Figure 4. A
// flight of encoded batches (accumulated by the writer's per-segment sender
// while a previous flight was in the air) arrives as one network message
// and is persisted with one hot-log write and one sync — this is what
// drives IOs per transaction below one at high concurrency (Table 1). The
// wire bytes are fsynced BEFORE decoding: the hot log persists what the
// wire carried, and filing into the in-memory indexes happens after
// durability, exactly as a real log-structured store would replay it.
//
// The flight views are BORROWED for the duration of the call (they
// typically point into the sender's arena). Anything the node retains is
// copied: per batch, one body buffer plus one record slab whose Data fields
// alias that buffer — the slab stays reachable until every record filed
// from it is GC'd, which is the price of two allocations per batch instead
// of two per record.
//
// Outcomes are split by scope: a node-level error (down, wiped, disk
// failure, QoS rejection, canceled ctx) fails the whole flight and the
// sender retries it; per-batch rejections land in results (appended to and
// returned, so callers can pass reusable scratch) and fail only that
// batch. VDL and PGMRPL are piggybacked from the writer on every flight.
//
// When ctx carries a sampled span (trace.FromContext), the ingest is
// recorded as a storage.ingest span decomposed into disk.write, disk.sync
// and storage.apply children — the last hops of a commit's critical path.
// storage.apply's lock_wait_us is the part of it spent waiting for n.mu.
// Cancellation is honored only before persistence begins: once the hot-log
// write starts the flight is durable and the ack is returned regardless.
func (n *Node) Ingest(ctx context.Context, flight []core.BatchView, vdl, pgmrpl core.LSN, results []BatchResult) (Ack, []BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return Ack{}, results, err
	}
	parent := trace.FromContext(ctx)
	if n.down.Load() {
		return Ack{}, results, fmt.Errorf("%s: %w", n.cfg.Node, ErrNodeDown)
	}
	size := 0
	for _, v := range flight {
		size += v.Len()
	}
	// QoS admission happens before any disk IO: a shaped tenant waits (or
	// is rejected at its queue cap) without holding the hot log.
	vol := n.cfg.Vol
	if len(flight) > 0 {
		vol = flight[0].Vol()
	}
	if err := n.qos().AdmitIngest(ctx, vol, size); err != nil {
		return Ack{}, results, err
	}
	ingest := parent.Child("storage.ingest")
	trace.Annotate(ingest, "node", n.cfg.Node)
	trace.Annotate(ingest, "batches", len(flight))
	trace.Annotate(ingest, "bytes", size)
	wsp := ingest.Child("disk.write")
	if err := n.ssd.Write(size); err != nil {
		wsp.End()
		ingest.End()
		return Ack{}, results, fmt.Errorf("%s hot log: %w", n.cfg.Node, err)
	}
	wsp.End()
	ssp := ingest.Child("disk.sync")
	if err := n.ssd.Sync(); err != nil {
		ssp.End()
		ingest.End()
		return Ack{}, results, fmt.Errorf("%s hot log sync: %w", n.cfg.Node, err)
	}
	ssp.End()
	asp := ingest.Child("storage.apply")
	n.mu.Lock()
	// The span's age at the lock is the wait for it (zero, and no clock read,
	// when unsampled).
	lockWait := asp.Age()
	if n.wiped {
		n.mu.Unlock()
		asp.End()
		ingest.End()
		return Ack{}, results, fmt.Errorf("%s: %w", n.cfg.Node, ErrWipedSegment)
	}
	accepted, filedTotal := 0, 0
	for _, v := range flight {
		res := BatchResult{PG: v.PG()}
		res.Records, res.Err = n.ingestBatchLocked(v)
		if res.Err == nil {
			accepted++
			filedTotal += res.Records
		}
		results = append(results, res)
	}
	n.observePointsLocked(vdl, pgmrpl)
	scl := n.gaps.SCL()
	n.mu.Unlock()
	trace.Annotate(asp, "lock_wait_us", lockWait.Microseconds())
	asp.End()
	trace.Annotate(ingest, "scl", scl)
	ingest.End()
	n.batches.Add(uint64(accepted))
	n.records.Add(uint64(filedTotal))
	return Ack{Seg: n.cfg.Seg, SCL: scl}, results, nil
}

// ingestBatchLocked validates one borrowed batch view and files its records,
// returning how many were newly filed. The records are decoded zero-copy
// into one retained body buffer + record slab per batch (see Ingest).
func (n *Node) ingestBatchLocked(v core.BatchView) (int, error) {
	if err := n.checkVol(v.Vol()); err != nil {
		return 0, err
	}
	if err := n.observeGeometryLocked(v.Epoch()); err != nil {
		return 0, err
	}
	if err := v.Verify(); err != nil {
		return 0, fmt.Errorf("%s: batch pg=%d: %w", n.cfg.Node, v.PG(), err)
	}
	// The one copy the node owes: the view's bytes die with the sender's
	// arena, so the retained records decode against a private body buffer.
	body := append([]byte(nil), v.Body()...)
	slab := make([]core.Record, v.NumRecords())
	off := 0
	filed := 0
	for i := range slab {
		consumed, err := core.DecodeRecordInto(body[off:], &slab[i])
		if err != nil {
			return filed, fmt.Errorf("%s: batch pg=%d record %d: %w", n.cfg.Node, v.PG(), i, err)
		}
		off += consumed
		if n.admitRecordLocked(&slab[i]) {
			n.fileLocked(&slab[i])
			filed++
		}
	}
	return filed, nil
}

// ingestLocked clones and files one record, reporting whether it was new.
// It serves the cold paths that hold records borrowed from a peer (gossip,
// scrub repair); the foreground Ingest path files slab records directly via
// admitRecordLocked+fileLocked without the clone.
func (n *Node) ingestLocked(r *core.Record) bool {
	if !n.admitRecordLocked(r) {
		return false
	}
	cl := r.Clone()
	n.fileLocked(&cl)
	return true
}

// admitRecordLocked reports whether the record should be filed. Duplicates,
// annulled and GC'd records are rejected silently.
func (n *Node) admitRecordLocked(r *core.Record) bool {
	// Defense in depth for multi-tenancy: even a record arriving via gossip
	// or repair (paths that bypass the foreground batch check) must carry
	// this segment's volume — a foreign tenant's record is never filed.
	if r.Vol != n.cfg.Vol {
		return false
	}
	if n.trunc.Annuls(r.LSN) || r.LSN <= n.gcTail {
		return false
	}
	return !n.log.has(r.LSN)
}

// fileLocked files an admitted record into the log, page chains, CPL index
// and gap tracker — and, while a delta is staging, onto the backup's staging
// list. The node takes ownership of *rec (and whatever its Data aliases) from
// this point on; records are immutable once filed, so the staging list may
// keep one alive past coalescing GC until the next backup pass.
func (n *Node) fileLocked(rec *core.Record) {
	if n.staging {
		n.staged = append(n.staged, rec)
	}
	n.log.insert(rec)
	if rec.PageRecord() {
		n.chainInsertLocked(n.pageLocked(rec.Page), rec)
	}
	if rec.IsCPL() {
		n.cpls.insert(rec.LSN)
	}
	n.gaps.Add(rec.PrevLSN, rec.LSN)
}

// pageLocked returns the state of a page, creating it on first mention.
func (n *Node) pageLocked(id core.PageID) *pageState {
	ps := n.pages[id]
	if ps == nil {
		ps = &pageState{id: id}
		n.pages[id] = ps
	}
	return ps
}

// chainInsertLocked puts rec on the page's chain, keeping it sorted by LSN
// (records usually arrive in order, so the common case is an append), and
// enters the page on the dirty list if it is not there.
func (n *Node) chainInsertLocked(ps *pageState, rec *core.Record) {
	i := len(ps.chain)
	for i > 0 && ps.chain[i-1].LSN > rec.LSN {
		i--
	}
	ps.chain = append(ps.chain, nil)
	copy(ps.chain[i+1:], ps.chain[i:])
	ps.chain[i] = rec
	if !ps.listed {
		ps.listed = true
		n.dirty = append(n.dirty, ps)
	}
}

// observeGeometryLocked folds a piggybacked geometry epoch into the node's
// view and rejects epochs the node knows to be superseded. Epoch 0 batches
// are unversioned and always accepted.
func (n *Node) observeGeometryLocked(epoch uint64) error {
	if epoch == 0 {
		return nil
	}
	if epoch < n.geomEpoch {
		return fmt.Errorf("%s: %w: have %d, got %d", n.cfg.Node, ErrStaleGeometry, n.geomEpoch, epoch)
	}
	n.geomEpoch = epoch
	return nil
}

// ObserveGeometry pushes a new geometry epoch to the node (the explicit
// notification at a cutover; batches also piggyback it). Down nodes miss
// the push and learn the epoch from the next batch or read instead.
func (n *Node) ObserveGeometry(epoch uint64) {
	if n.down.Load() {
		return
	}
	n.mu.Lock()
	if epoch > n.geomEpoch {
		n.geomEpoch = epoch
	}
	n.mu.Unlock()
}

func (n *Node) observePointsLocked(vdl, pgmrpl core.LSN) {
	if vdl > n.vdl {
		n.vdl = vdl
	}
	if pgmrpl > n.pgmrpl {
		n.pgmrpl = pgmrpl
	}
}

// SCL returns the segment complete LSN.
func (n *Node) SCL() core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gaps.SCL()
}

// HasGaps reports whether the node is missing records it knows exist.
func (n *Node) HasGaps() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gaps.HasGap()
}

// HighestLSN returns the highest LSN the node knows of: the maximum of its
// retained records, its GC boundary and its completeness point. Recovery
// compares it against the SCL to detect dangling records above a hole.
func (n *Node) HighestLSN() core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	max := n.gcTail
	if scl := n.gaps.SCL(); scl > max {
		max = scl
	}
	if top := n.log.highest(); top > max {
		max = top
	}
	return max
}

// HighestCPLAtOrBelow returns the highest consistency point at or below
// limit that this node has seen (ZeroLSN if none). Volume recovery uses it
// to compute the VDL from the VCL (§4.1).
func (n *Node) HighestCPLAtOrBelow(limit core.LSN) core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cpls.floor(limit)
}

// CPLs returns the consistency points this node has seen, ascending. Below
// the GC tail only the highest survives, which answers for every one
// dropped. Volume recovery summarises each reachable replica by them.
func (n *Node) CPLs() []core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]core.LSN, 0, n.cpls.len())
	n.cpls.each(func(c core.LSN) { out = append(out, c) })
	return out
}

// ReadPage is the foreground read path: it serves the version of the page
// as of readPoint in a new page (see ReadPageChecked, which reads into the
// caller's buffer).
//
// required is the completeness the writer demands: the LSN of the last
// record of this protection group at or below the read point. The writer
// tracks it precisely (§4.2.3 — "the database ... normally knows which
// segment is capable of satisfying a read"), and the node re-verifies its
// SCL against it. The read point itself may exceed the SCL when the PG has
// been idle while the volume's VDL advanced on other PGs.
func (n *Node) ReadPage(ctx context.Context, id core.PageID, readPoint, required core.LSN) (page.Page, error) {
	p := make(page.Page, page.Size)
	if _, err := n.ReadPageChecked(ctx, id, readPoint, required, 0, p); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadPageChecked is ReadPage into dst, a page-sized buffer the caller owns
// (a buffer-cache frame, on the volume's read path), with a geometry-epoch
// check: a caller routing with an older geometry than the node has learned is
// rejected with ErrStaleGeometry and must refetch the table and re-route — a
// read must never be answered by a node that silently lost the page's stripe
// to a cutover (it would materialize an empty page, not fail). A caller with a
// newer epoch teaches it to the node. Epoch 0 skips the check.
//
// The base is copied into dst under the lock and the copy's CRC — so the
// bytes vouched for are the bytes served — is verified before the chain up
// to readPoint is folded onto it. A mismatch is refused with ErrCorruptPage
// and counted in CorruptReads. A refused read leaves dst holding anything.
//
// With the page comes the segment's SCL as the read saw it — the completeness
// point a response piggybacks, which the read has just compared with required
// under the lock it already holds.
//
// The page's disk read is waited out after the unlock, before the call
// returns: a read never holds up an Ingest filing behind it. A read refused
// before it reaches the disk (stale geometry, wiped, incomplete, no such page)
// costs no IO; a failed disk refuses the read whatever the copy held.
func (n *Node) ReadPageChecked(ctx context.Context, id core.PageID, readPoint, required core.LSN, geomEpoch uint64, dst page.Page) (core.LSN, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(dst) != page.Size {
		return 0, page.ErrBadSize
	}
	if n.down.Load() {
		return 0, fmt.Errorf("%s: %w", n.cfg.Node, ErrNodeDown)
	}
	if n.cfg.Role == core.RoleLog {
		return 0, fmt.Errorf("%s: %w", n.cfg.Node, ErrWrongTier)
	}
	if err := n.qos().AdmitRead(ctx, n.cfg.Vol); err != nil {
		return 0, err
	}
	// A page replica whose applied LSN trails the read point replays the
	// missing log from its peers before answering — the split's read
	// fallback. Bounded and ctx-scoped; if it cannot reach the read point
	// the ErrIncomplete below stands and the client hedges to a peer.
	if n.cfg.Role == core.RolePage && n.SCL() < required {
		n.catchUpTo(ctx, required)
	}
	n.mu.Lock()
	scl, atDisk, err := n.readLocked(id, readPoint, required, geomEpoch, dst)
	n.mu.Unlock()
	if !atDisk {
		return 0, err
	}
	if ioErr := n.ssd.Read(page.Size); ioErr != nil {
		return 0, ioErr
	}
	if err != nil {
		if errors.Is(err, ErrCorruptPage) {
			n.corruptReads.Add(1)
		}
		return 0, err
	}
	n.reads.Add(1)
	return scl, nil
}

// readLocked is ReadPageChecked's in-memory half: it checks the read against
// the node's state, then copies, verifies and folds the page into dst. atDisk
// reports whether the read got as far as the disk, which the caller then
// waits out whatever err says.
func (n *Node) readLocked(id core.PageID, readPoint, required core.LSN, geomEpoch uint64, dst page.Page) (scl core.LSN, atDisk bool, err error) {
	if geomEpoch != 0 {
		if geomEpoch < n.geomEpoch {
			return 0, false, fmt.Errorf("%s: %w: have %d, got %d", n.cfg.Node, ErrStaleGeometry, n.geomEpoch, geomEpoch)
		}
		n.geomEpoch = geomEpoch
	}
	if n.wiped {
		return 0, false, fmt.Errorf("%s: %w", n.cfg.Node, ErrWipedSegment)
	}
	scl = n.gaps.SCL()
	if scl < required {
		return 0, false, fmt.Errorf("%s: %w: scl=%d required=%d", n.cfg.Node, ErrIncomplete, scl, required)
	}
	ps := n.pages[id]
	if ps == nil {
		return 0, false, fmt.Errorf("%s page %d: %w", n.cfg.Node, id, ErrNoSuchPage)
	}
	// Copy the base out under the lock and gate the read on the CRC of the
	// copy (Figure 4 step 8 moved into the foreground path): the bytes vouched
	// for are the bytes served, and the cold base is streamed once — the CRC
	// then runs over a copy that is already in cache. A corrupt base is
	// refused before anything is folded onto it, so it never reaches a
	// response; the refusal makes the corruption look like a failed replica —
	// the client's hedged read falls through to a peer — while the background
	// scrubber repairs this copy.
	if ps.base != nil {
		copy(dst, ps.base)
		if err := dst.VerifyChecksum(); err != nil {
			return 0, true, fmt.Errorf("%s page %d: %w: %v", n.cfg.Node, id, ErrCorruptPage, err)
		}
	} else {
		dst.Reset(id)
	}
	// The chain up to the read point goes onto the copy with the loop
	// coalescing uses on the base itself.
	if err := foldInto(dst, ps.chain, readPoint); err != nil {
		return 0, true, fmt.Errorf("%s: materialize page %d at %d: %w", n.cfg.Node, id, readPoint, err)
	}
	return scl, true, nil
}

// Reads returns the number of foreground page reads this node has served
// (the per-PG IO counter growth tests assert rebalanced reads against).
func (n *Node) Reads() uint64 { return n.reads.Load() }

// StripePages enumerates the pages this segment holds that match the given
// predicate (typically stripe membership), with each page's tail LSN: the
// highest LSN reflected in its base image or delta chain. The rebalancer
// uses it to drive the copy and to detect pages dirtied since the warm
// copy (tail > copiedAt) that need re-copying inside the fence.
func (n *Node) StripePages(match func(core.PageID) bool) map[core.PageID]core.LSN {
	if n.down.Load() {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[core.PageID]core.LSN)
	for id, ps := range n.pages {
		if !match(id) {
			continue
		}
		var tail core.LSN
		if ps.base != nil {
			tail = ps.base.LSN()
		}
		if k := len(ps.chain); k > 0 && ps.chain[k-1].LSN > tail {
			tail = ps.chain[k-1].LSN
		}
		out[id] = tail
	}
	return out
}

// Truncate applies an epoch-versioned truncation range (§4.3), annulling
// every record in (From, To]. Stale epochs are rejected so an interrupted
// and restarted recovery cannot be confused by older truncations. The write
// that persists the decision runs after the unlock, and Truncate returns once
// it is done.
func (n *Node) Truncate(tr core.TruncationRange) error {
	if n.down.Load() {
		return fmt.Errorf("%s: %w", n.cfg.Node, ErrNodeDown)
	}
	n.mu.Lock()
	err := n.truncateLocked(tr)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return n.ssd.Write(64)
}

// truncateLocked is Truncate's in-memory half.
func (n *Node) truncateLocked(tr core.TruncationRange) error {
	if tr.Epoch < n.trunc.Epoch {
		return fmt.Errorf("%s: %w: have %d, got %d", n.cfg.Node, ErrStaleEpoch, n.trunc.Epoch, tr.Epoch)
	}
	n.trunc = tr
	for _, rec := range n.log.removeRange(tr.From, tr.To) {
		if !rec.PageRecord() {
			continue
		}
		if ps := n.pages[rec.Page]; ps != nil {
			ps.chain = removeRecord(ps.chain, rec.LSN)
			if ps.base == nil && len(ps.chain) == 0 {
				delete(n.pages, rec.Page)
			}
		}
	}
	n.cpls.retain(func(l core.LSN) bool { return !tr.Annuls(l) })
	n.rebuildGapsLocked()
	n.dropStagedLocked()
	return nil
}

// rebuildGapsLocked reconstructs the completeness tracker from the
// surviving records. The chain is seeded at the highest LSN ever garbage
// collected (everything at or below it was complete when coalesced), so
// that after a truncation the SCL lands on an actual record LSN and future
// records chain correctly from it.
func (n *Node) rebuildGapsLocked() {
	g := core.NewGapTracker(n.gcTail)
	for _, r := range n.log {
		g.Add(r.PrevLSN, r.LSN)
	}
	n.gaps = g
}

// TruncationEpoch returns the epoch of the last applied truncation.
func (n *Node) TruncationEpoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trunc.Epoch
}

func removeRecord(chain []*core.Record, lsn core.LSN) []*core.Record {
	for i, r := range chain {
		if r.LSN == lsn {
			return append(chain[:i], chain[i+1:]...)
		}
	}
	return chain
}

// Stats returns a snapshot of activity counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	held := len(n.log)
	pages := len(n.pages)
	n.mu.Unlock()
	return Stats{
		BatchesReceived: n.batches.Load(),
		RecordsReceived: n.records.Load(),
		RecordsHeld:     held,
		PagesHeld:       pages,
		GossipRounds:    n.gossips.Load(),
		RecordsGossiped: n.gossiped.Load(),
		FeedBytes:       n.feedBytes.Load(),
		PagesCoalesced:  n.coalesces.Load(),
		RecordsGCed:     n.gced.Load(),
		Backups:         n.backups.Load(),
		ScrubsClean:     n.scrubOK.Load(),
		ScrubsRepaired:  n.scrubFix.Load(),
		Reads:           n.reads.Load(),
		CorruptReads:    n.corruptReads.Load(),
	}
}

// Start launches the background loops — gossip, coalesce/GC, backup, scrub
// — under a root context that Stop cancels. Tests can instead drive
// GossipOnce/CoalesceOnce/BackupNow/ScrubOnce deterministically.
func (n *Node) Start() {
	n.runMu.Lock()
	defer n.runMu.Unlock()
	if n.runCancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.runCtx, n.runCancel = ctx, cancel
	run := func(interval time.Duration, f func()) {
		n.stopped.Add(1)
		go func() {
			defer n.stopped.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if !n.down.Load() {
						f()
					}
				}
			}
		}()
	}
	gossip := gossipInterval
	if n.cfg.Role == core.RolePage {
		gossip = pageGossipInterval
	}
	run(gossip, func() { n.GossipOnce() })
	run(coalesceInterval, func() { n.CoalesceOnce() })
	if n.cfg.Store != nil {
		run(n.cfg.BackupInterval, func() { n.BackupNow() })
	}
	run(scrubInterval, func() { n.ScrubOnce() })
}

// Stop cancels the root context and waits for the background loops started
// by Start to exit; any gossip or repair send they were blocked in is
// abandoned immediately.
func (n *Node) Stop() {
	n.runMu.Lock()
	cancel := n.runCancel
	n.runCtx, n.runCancel = nil, nil
	n.runMu.Unlock()
	if cancel != nil {
		cancel()
		n.stopped.Wait()
	}
}

// runContext returns the root context the background loops run under, or
// context.Background when they are not running (tests driving the
// background steps directly).
func (n *Node) runContext() context.Context {
	n.runMu.Lock()
	defer n.runMu.Unlock()
	if n.runCtx != nil {
		return n.runCtx
	}
	return context.Background()
}
