package volume

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/quorum"
	"aurora/internal/storage"
)

// GeometryManifestKey is the object-store key the fleet publishes volume
// vol's geometry under. Point-in-time restore reads the manifest as of the
// restore point so a grown volume routes pages the way it did then. Keys are
// namespaced per tenant so two volumes sharing one store can never clobber
// each other's manifest lineage.
func GeometryManifestKey(vol core.VolumeID) string {
	return fmt.Sprintf("vol%d/manifest/geometry", uint32(vol))
}

// FleetConfig describes the storage fleet backing one volume.
type FleetConfig struct {
	// Name prefixes every storage node's network identity so several
	// volumes can share one simulated network (multi-tenancy, §7.1).
	Name string
	// Vol is the tenant volume identity stamped on every record, batch,
	// segment and backup key. Zero is the single-tenant volume.
	Vol core.VolumeID
	// Pool places this volume's segments onto a shared multi-tenant host
	// fleet (with AZ-spread and blast-radius scoring) instead of
	// provisioning dedicated nodes. Requires Vol != 0 so tenants on the
	// pool are distinguishable. Nil keeps the classic dedicated fleet.
	Pool *storage.Pool
	// Geometry is the volume's initial page→PG routing table — the single
	// source of truth for placement. core.UniformGeometry(pgs) gives the
	// classic uniform striping over pgs protection groups; the fleet
	// provisions Geometry.PGs() groups and Grow appends more, publishing
	// new geometry epochs as stripes cut over.
	Geometry *core.Geometry
	// Quorum is the replication scheme; zero value selects quorum.Aurora().
	Quorum quorum.Config
	Net    *netsim.Network
	Disk   disk.Config
	// Store receives continuous backups; nil disables them.
	Store *objstore.Store
	// BackupInterval is the storage nodes' backup cadence (zero = the
	// storage default).
	BackupInterval time.Duration
}

// geomVersion is one entry of the fleet's geometry history: the table plus
// the first read point it routes. Reads at a point below a cutover must
// route with the geometry that was current then — the stripe's old PG
// retains every record at or below the cutover (GC is bounded by the
// MRPL), while the new PG only has state from the copy onward.
type geomVersion struct {
	geom  *core.Geometry
	since core.LSN
}

// Fleet owns the storage nodes of one volume: protection groups of V
// segment replicas each, placed two per AZ across three AZs (for the
// default quorum), plus the epoch-versioned geometry that maps pages onto
// them. Grow appends protection groups at runtime; the hot-path accessors
// (Replicas, PGOf) are lock-free over copy-on-write state.
type Fleet struct {
	cfg    FleetConfig
	q      quorum.Config
	pgs    atomic.Pointer[[][]*storage.Node]
	health *HealthTracker

	geomMu  sync.Mutex // serialises growth and geometry publication
	geom    atomic.Pointer[core.Geometry]
	histMu  sync.RWMutex
	history []geomVersion
	started atomic.Bool

	monMu   sync.Mutex
	monStop chan struct{}
	monDone sync.WaitGroup

	// readerPts pins the read points of attached read replicas: the writer
	// folds the minimum into its MRPL so storage GC never collects a page
	// version a replica may still serve (§4.2.3). Reader.Close releases the
	// pin — a departed replica must not hold the GC floor down forever.
	readerMu  sync.Mutex
	readerPts map[netsim.NodeID]core.LSN
}

// NewFleet provisions the storage nodes and wires each PG's peers.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Geometry == nil || cfg.Geometry.PGs() <= 0 {
		return nil, errors.New("volume: geometry required (core.UniformGeometry)")
	}
	if cfg.Net == nil {
		return nil, errors.New("volume: network required")
	}
	q := cfg.Quorum
	if q.V == 0 {
		q = quorum.Aurora()
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "vol"
	}
	if cfg.Pool != nil {
		if cfg.Vol == 0 {
			return nil, errors.New("volume: a pooled fleet needs a nonzero VolumeID")
		}
		if cfg.Store == nil {
			cfg.Store = cfg.Pool.Store()
		}
	}
	f := &Fleet{cfg: cfg, q: q}
	npgs := cfg.Geometry.PGs()
	pgs := make([][]*storage.Node, npgs)
	for g := 0; g < npgs; g++ {
		replicas, err := f.provisionPG(g)
		if err != nil {
			return nil, err
		}
		pgs[g] = replicas
	}
	f.pgs.Store(&pgs)
	f.health = newHealthTracker(HealthConfig{}, npgs, q.V)
	f.geom.Store(cfg.Geometry)
	f.history = []geomVersion{{geom: cfg.Geometry, since: core.ZeroLSN}}
	// The manifest is only persisted when the geometry changes (Grow,
	// stripe cutovers): a restored fleet shares the source's object store,
	// and writing at provision time would pollute the source's manifest
	// lineage. A never-grown volume has no manifest; restore falls back to
	// the caller-supplied geometry, which is exactly the initial one.
	f.broadcastGeometry(cfg.Geometry)
	return f, nil
}

// provisionPG builds the V replicas of one protection group and wires
// their peers. On a pooled fleet the replicas are placed onto shared hosts
// chosen by the pool (AZ-spread, blast-radius limits); placement can fail
// when an AZ has no host, so provisioning is fallible in pool mode.
func (f *Fleet) provisionPG(g int) ([]*storage.Node, error) {
	var hosts []*storage.Host
	if f.cfg.Pool != nil {
		var err error
		hosts, err = f.cfg.Pool.Place(f.cfg.Vol, core.PGID(g), f.q)
		if err != nil {
			return nil, err
		}
	}
	replicas := make([]*storage.Node, f.q.V)
	for r := 0; r < f.q.V; r++ {
		cfg := storage.Config{
			Seg:            core.SegmentID{PG: core.PGID(g), Replica: uint8(r)},
			Node:           f.nodeName(g, r),
			AZ:             netsim.AZ(f.q.ReplicaAZ(r)),
			Net:            f.cfg.Net,
			Disk:           f.cfg.Disk,
			Vol:            f.cfg.Vol,
			Store:          f.cfg.Store,
			BackupInterval: f.cfg.BackupInterval,
			Role:           f.q.Role(r),
		}
		if hosts != nil {
			cfg.Host = hosts[r]
		}
		replicas[r] = storage.NewNode(cfg)
	}
	for _, n := range replicas {
		n.SetPeers(replicas)
	}
	return replicas, nil
}

// Health exposes the fleet's gray-failure tracker.
func (f *Fleet) Health() *HealthTracker { return f.health }

func (f *Fleet) nodeName(pg, replica int) netsim.NodeID {
	return netsim.NodeID(fmt.Sprintf("%s-pg%d-s%d", f.cfg.Name, pg, replica))
}

// Quorum returns the replication scheme.
func (f *Fleet) Quorum() quorum.Config { return f.q }

// Vol returns the tenant volume identity this fleet serves (zero for a
// single-tenant fleet).
func (f *Fleet) Vol() core.VolumeID { return f.cfg.Vol }

// PGs returns the number of protection groups.
func (f *Fleet) PGs() int { return len(*f.pgs.Load()) }

// Geometry returns the current page→PG routing table.
func (f *Fleet) Geometry() *core.Geometry { return f.geom.Load() }

// GeometryAt returns the geometry that routes reads at the given read
// point: the newest table whose cutover point is at or below it.
func (f *Fleet) GeometryAt(readPoint core.LSN) *core.Geometry {
	f.histMu.RLock()
	defer f.histMu.RUnlock()
	for i := len(f.history) - 1; i > 0; i-- {
		if f.history[i].since <= readPoint {
			return f.history[i].geom
		}
	}
	return f.history[0].geom
}

// PGOf maps a page onto its protection group under the current geometry.
func (f *Fleet) PGOf(id core.PageID) core.PGID {
	return f.geom.Load().PG(id)
}

// PGOfAt maps a page onto the protection group that holds its history as
// of readPoint — reads below a stripe cutover go to the stripe's old PG.
func (f *Fleet) PGOfAt(id core.PageID, readPoint core.LSN) core.PGID {
	return f.GeometryAt(readPoint).PG(id)
}

// Replicas returns the current replicas of a protection group.
func (f *Fleet) Replicas(pg core.PGID) []*storage.Node {
	pgs := *f.pgs.Load()
	return pgs[int(pg)%len(pgs)]
}

// Node returns one replica.
func (f *Fleet) Node(pg core.PGID, replica int) *storage.Node {
	return f.Replicas(pg)[replica]
}

// PublishGeometry installs a new geometry as the current routing table:
// the history gains an entry effective from the given cutover LSN, the
// manifest is persisted to the object store, and every storage node is
// taught the new epoch (nodes also learn it from batch piggybacks). The
// epoch must advance; the cutover point must be monotone.
func (f *Fleet) PublishGeometry(g *core.Geometry, since core.LSN) error {
	f.geomMu.Lock()
	defer f.geomMu.Unlock()
	return f.publishLocked(g, since)
}

func (f *Fleet) publishLocked(g *core.Geometry, since core.LSN) error {
	cur := f.geom.Load()
	if g.Epoch() <= cur.Epoch() {
		return fmt.Errorf("volume: geometry epoch %d not newer than %d", g.Epoch(), cur.Epoch())
	}
	if g.PGs() > f.PGs() {
		return fmt.Errorf("volume: geometry routes %d PGs, fleet has %d", g.PGs(), f.PGs())
	}
	f.histMu.Lock()
	if last := f.history[len(f.history)-1].since; since < last {
		since = last
	}
	f.history = append(f.history, geomVersion{geom: g, since: since})
	f.histMu.Unlock()
	f.geom.Store(g)
	f.persistGeometry(g)
	f.broadcastGeometry(g)
	return nil
}

func (f *Fleet) persistGeometry(g *core.Geometry) {
	if f.cfg.Store != nil {
		f.cfg.Store.Put(GeometryManifestKey(f.cfg.Vol), g.AppendEncode(nil))
	}
}

func (f *Fleet) broadcastGeometry(g *core.Geometry) {
	for _, pg := range *f.pgs.Load() {
		for _, n := range pg {
			n.ObserveGeometry(g.Epoch())
		}
	}
}

// Grow appends n protection groups of V segment replicas across the three
// AZs and publishes a new geometry epoch covering them (§3: the volume
// grows by appending protection groups on demand). The new PGs hold no
// stripes yet — the caller (Client.Grow) runs the rebalancer that moves
// stripes onto them via copy + catch-up + cutover while traffic continues.
// It returns the IDs of the appended PGs.
func (f *Fleet) Grow(n int) ([]core.PGID, error) {
	if n <= 0 {
		return nil, errors.New("volume: Grow needs a positive PG count")
	}
	f.geomMu.Lock()
	defer f.geomMu.Unlock()
	old := f.PGs()
	ng, err := f.Geometry().WithPGs(old + n)
	if err != nil {
		return nil, err
	}
	cur := *f.pgs.Load()
	pgs := make([][]*storage.Node, old, old+n)
	copy(pgs, cur)
	added := make([]core.PGID, 0, n)
	for g := old; g < old+n; g++ {
		replicas, err := f.provisionPG(g)
		if err != nil {
			return nil, err
		}
		pgs = append(pgs, replicas)
		added = append(added, core.PGID(g))
	}
	f.pgs.Store(&pgs)
	f.health.Grow(old+n, f.q.V)
	for _, pg := range added {
		for _, node := range f.Replicas(pg) {
			if f.started.Load() {
				node.Start()
			}
			// Stage an initial (empty) backup immediately so a restore to a
			// point just after growth finds a snapshot for every segment.
			node.BackupNow()
		}
	}
	// The stripe table is unchanged, so the new epoch routes identically;
	// it takes effect from the same point its predecessor did.
	f.histMu.RLock()
	since := f.history[len(f.history)-1].since
	f.histMu.RUnlock()
	if err := f.publishLocked(ng, since); err != nil {
		return nil, err
	}
	return added, nil
}

// Start launches background loops on every storage node plus the fleet's
// self-driven repair monitor.
func (f *Fleet) Start() {
	f.started.Store(true)
	for _, pg := range *f.pgs.Load() {
		for _, n := range pg {
			n.Start()
		}
	}
	f.monMu.Lock()
	defer f.monMu.Unlock()
	if f.monStop != nil {
		return
	}
	f.monStop = make(chan struct{})
	stop := f.monStop
	f.monDone.Add(1)
	go func() {
		defer f.monDone.Done()
		t := time.NewTicker(monitorInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				f.healthMonitorOnce()
			}
		}
	}()
}

// Stop terminates all background loops.
func (f *Fleet) Stop() {
	f.started.Store(false)
	f.monMu.Lock()
	stop := f.monStop
	f.monStop = nil
	f.monMu.Unlock()
	if stop != nil {
		close(stop)
		f.monDone.Wait()
	}
	for _, pg := range *f.pgs.Load() {
		for _, n := range pg {
			n.Stop()
			// A pooled volume's segments leave their hosts' registries on
			// shutdown so the machines' capacity and blast-radius scores are
			// freed for other tenants.
			n.Detach()
		}
	}
}

// healthMonitorOnce is one pass of the self-driven repair loop: any replica
// stuck in Suspect is healed without waiting for a chaos script or an
// operator — first by a gossip catch-up (cheap, fills dropped batches),
// then by a full segment repair from a healthy peer. This is the §2.3 MTTR
// argument turned into a control loop: the fleet notices its own gray
// failures and shrinks the window in which a second fault could pair with
// them.
func (f *Fleet) healthMonitorOnce() {
	for g, replicas := range *f.pgs.Load() {
		pg := core.PGID(g)
		for i, n := range replicas {
			if f.health.State(pg, i) != Suspect {
				continue
			}
			if n.Down() {
				continue // crashed, not gray: restart + gossip heal it
			}
			if n.GossipOnce() > 0 && !n.HasGaps() {
				f.health.autoRepairs.Inc()
				f.health.Reset(pg, i)
				continue
			}
			if err := f.RepairSegment(pg, i); err == nil {
				f.health.autoRepairs.Inc()
			}
		}
	}
}

// setReaderPoint records (monotonically) the read point a replica reader
// has pinned. The reader advances it as its applied view moves forward.
func (f *Fleet) setReaderPoint(node netsim.NodeID, lsn core.LSN) {
	f.readerMu.Lock()
	if f.readerPts == nil {
		f.readerPts = make(map[netsim.NodeID]core.LSN)
	}
	if cur, ok := f.readerPts[node]; !ok || lsn > cur {
		f.readerPts[node] = lsn
	}
	f.readerMu.Unlock()
}

// unregisterReader drops a reader's read-point pin.
func (f *Fleet) unregisterReader(node netsim.NodeID) {
	f.readerMu.Lock()
	delete(f.readerPts, node)
	f.readerMu.Unlock()
}

// readerFloor returns the lowest read point pinned by any attached reader,
// and whether one exists.
func (f *Fleet) readerFloor() (core.LSN, bool) {
	f.readerMu.Lock()
	defer f.readerMu.Unlock()
	var floor core.LSN
	found := false
	for _, lsn := range f.readerPts {
		if !found || lsn < floor {
			floor = lsn
			found = true
		}
	}
	return floor, found
}

// PageFeedBytes sums the asynchronous log→page feed traffic over the
// fleet's page-tier replicas. Zero when the quorum is not role-split:
// full replicas also gossip, but that is hole repair, not a feed.
func (f *Fleet) PageFeedBytes() uint64 {
	var total uint64
	for _, pg := range *f.pgs.Load() {
		for _, n := range pg {
			if n.Role() == core.RolePage {
				total += n.FeedBytes()
			}
		}
	}
	return total
}

// Net returns the underlying network.
func (f *Fleet) Net() *netsim.Network { return f.cfg.Net }

// Store returns the backup object store (may be nil).
func (f *Fleet) Store() *objstore.Store { return f.cfg.Store }

// ErrNoHealthyPeer is returned when a repair finds no source replica.
var ErrNoHealthyPeer = errors.New("volume: no healthy peer to repair from")

// RepairSegment re-replicates one segment from the first healthy peer in
// its PG — the quorum repair that restores full replication after a
// failure (§2.2). Page-capable peers are preferred as the source: under a
// role split a log replica's snapshot has no materialized bases and its
// log prefix may already be GC'd, so it can only seed another log
// replica, never rebuild page history.
func (f *Fleet) RepairSegment(pg core.PGID, replica int) error {
	replicas := f.Replicas(pg)
	target := replicas[replica]
	try := func(logTier bool) bool {
		for i, peer := range replicas {
			if i == replica || peer.Down() || (peer.Role() == core.RoleLog) != logTier {
				continue
			}
			if err := target.RepairFrom(peer); err == nil {
				// One peer's snapshot may trail the quorum by a batch still in
				// flight; gossip immediately to converge.
				target.GossipOnce()
				f.health.Reset(pg, replica)
				return true
			}
		}
		return false
	}
	if try(false) || try(true) {
		return nil
	}
	return fmt.Errorf("pg %d replica %d: %w", pg, replica, ErrNoHealthyPeer)
}
