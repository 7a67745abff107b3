// Package aurora is a from-scratch reproduction of Amazon Aurora (SIGMOD
// 2017): a relational OLTP engine whose redo processing is pushed into a
// multi-tenant, quorum-replicated, self-healing storage service. The log is
// the database: the writer ships only redo records — never pages — to six
// segment replicas across three simulated availability zones, commits
// asynchronously once the volume durable LSN passes the commit record, and
// recovers from crashes in milliseconds because redo application runs
// continuously on the storage fleet.
//
// A Cluster bundles the simulated multi-AZ network, the storage fleet, the
// single writer instance and any read replicas:
//
//	c, err := aurora.NewCluster(aurora.Options{})
//	defer c.Close()
//	err = c.Put([]byte("k"), []byte("v"))
//	tx := c.Begin()
//	...
//
// The internal packages implement every substrate the paper depends on —
// the network and SSD simulators, an EBS-style mirrored block store and a
// MySQL-style baseline engine for the paper's comparisons, an S3-style
// object store for continuous backup, quorum machinery with a Monte-Carlo
// durability model, and the storage-node pipeline of Figure 4.
package aurora

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/quorum"
	"aurora/internal/replica"
	"aurora/internal/trace"
	"aurora/internal/volume"
	"aurora/internal/zdp"
)

// NetworkProfile selects the latency model of the simulated network.
type NetworkProfile int

const (
	// NetFast is a zero-latency network for tests and functional use.
	NetFast NetworkProfile = iota
	// NetDatacenter is the scaled-down three-AZ model used by benchmarks:
	// 100µs intra-AZ, 500µs cross-AZ, jitter and rare 10x outliers.
	NetDatacenter
)

// Options configures a cluster. The zero value is a working configuration:
// aurora.NewCluster(aurora.Options{}) provisions a 4-PG volume on a fast
// local network with backups and background loops on.
type Options struct {
	// --- Topology: network, storage fleet, volume geometry ---

	// Name prefixes node identities, letting several clusters share a
	// network (multi-tenancy).
	Name string
	// PGs is the number of protection groups the volume's initial geometry
	// is striped over (default 4). Each PG is six segment replicas, two per
	// AZ. The volume can grow beyond this at runtime with GrowVolume; PGs
	// only fixes the starting point.
	PGs int
	// Network selects the latency model.
	Network NetworkProfile
	// RealisticDisks enables NVMe-like latencies on storage node SSDs.
	RealisticDisks bool
	// LogSplit re-roles each protection group into a 3-replica synchronous
	// log tier and a 3-replica asynchronous page tier (quorum.TaurusMix()).
	// Commits wait only on a 2/3 log-tier quorum; page replicas pull the
	// redo stream in the background and serve all page reads. Off by
	// default: the zero value keeps the paper's 4/6 scheme.
	LogSplit bool
	// DisableBackup turns off continuous backup to the object store.
	DisableBackup bool
	// DisableBackground skips launching the storage nodes' gossip/coalesce/
	// backup/scrub loops (on by default in NewCluster; benchmarks may
	// disable for determinism and drive them manually).
	DisableBackground bool

	// --- Engine: the writer instance ---

	// CachePages sets the writer's buffer cache size in pages (default
	// 4096); the knob behind the paper's instance-size sweeps.
	CachePages int
	// LockTimeout bounds row-lock waits (deadlock resolution).
	LockTimeout time.Duration

	// --- Tracing & observability ---

	// TraceEvery samples 1 in N commits (and cache-miss page reads) into
	// the causal tracing subsystem; 0 disables sampling (the default),
	// leaving only an atomic load on the hot path. The collector is
	// reachable via Tracer for attribution tables and exemplar trees.
	TraceEvery int
}

// OptionError reports an invalid Options field.
type OptionError struct {
	Field  string
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("aurora: invalid option %s: %s", e.Field, e.Reason)
}

// ErrInvalidOptions is the sentinel all OptionError values match with
// errors.Is, so callers can test for configuration errors as a class.
var ErrInvalidOptions = errors.New("aurora: invalid options")

// Is makes every OptionError match ErrInvalidOptions.
func (e *OptionError) Is(target error) bool { return target == ErrInvalidOptions }

// Validate checks the options without provisioning anything. The zero
// value is valid; fields where zero means "use the default" only fail on
// negative or out-of-range values. NewCluster calls this itself — Validate
// exists so configuration loaders can reject bad input early.
func (o Options) Validate() error {
	if o.PGs < 0 {
		return &OptionError{Field: "PGs", Reason: "must be >= 0 (0 selects the default)"}
	}
	if o.CachePages < 0 {
		return &OptionError{Field: "CachePages", Reason: "must be >= 0 (0 selects the default)"}
	}
	if o.LockTimeout < 0 {
		return &OptionError{Field: "LockTimeout", Reason: "must be >= 0"}
	}
	if o.TraceEvery < 0 {
		return &OptionError{Field: "TraceEvery", Reason: "must be >= 0 (0 disables sampling)"}
	}
	if o.Network != NetFast && o.Network != NetDatacenter {
		return &OptionError{Field: "Network", Reason: "unknown network profile"}
	}
	return nil
}

// newNetwork builds the simulated network for a latency profile.
func newNetwork(p NetworkProfile) *netsim.Network {
	if p == NetDatacenter {
		return netsim.New(netsim.Datacenter())
	}
	return netsim.New(netsim.FastLocal())
}

// diskConfig selects the storage nodes' SSD latency model.
func diskConfig(realistic bool) disk.Config {
	if realistic {
		return disk.NVMe()
	}
	return disk.FastLocal()
}

// fleetConfig is the one place Options become a storage-fleet configuration
// (geometry, disks, replication scheme) on the given network and backup
// store; callers add what only they know (tenant volume, host pool).
func (o Options) fleetConfig(net *netsim.Network, store *objstore.Store) volume.FleetConfig {
	cfg := volume.FleetConfig{
		Name: o.Name, Geometry: core.UniformGeometry(o.PGs),
		Net: net, Disk: diskConfig(o.RealisticDisks), Store: store,
	}
	if o.LogSplit {
		cfg.Quorum = quorum.TaurusMix()
	}
	return cfg
}

// engineConfig is the one place Options become a writer-instance
// configuration: every writer the cluster ever runs — the first, and each
// one a failover, patch or restore brings up — is configured from it.
func (o Options) engineConfig() engine.Config {
	return engine.Config{
		CachePages: o.CachePages, LockTimeout: o.LockTimeout,
		TraceEvery: o.TraceEvery,
	}
}

// Cluster is one Aurora deployment: network, storage fleet, object store,
// writer instance, replicas.
type Cluster struct {
	opts      Options
	net       *netsim.Network
	fleet     *volume.Fleet
	store     *objstore.Store
	db        *engine.DB
	proxy     *zdp.Proxy
	replicas  []*Replica
	writerGen int
	closed    bool
}

// NewCluster provisions a fresh cluster: 3 AZs, PGs×6 storage nodes, an
// object store, and a formatted database with its writer in AZ 0.
func NewCluster(opts Options) (*Cluster, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.PGs == 0 {
		opts.PGs = 4
	}
	if opts.Name == "" {
		opts.Name = "aurora"
	}
	net := newNetwork(opts.Network)
	store := objstore.New()
	if opts.DisableBackup {
		store = nil
	}
	fleet, err := volume.NewFleet(opts.fleetConfig(net, store))
	if err != nil {
		return nil, err
	}
	return attach(opts, net, store, fleet, false)
}

// attach brings up the first writer instance on fleet, in AZ 0, and returns
// the cluster around it: a fresh volume is bootstrapped and formatted, a
// restored one recovered to its durable point. Either way a failure stops the
// fleet — on a shared pool that is what frees its hosts — and the failed
// Create or Recover has already closed the volume client.
func attach(opts Options, net *netsim.Network, store *objstore.Store, fleet *volume.Fleet, restored bool) (*Cluster, error) {
	vcfg := volume.ClientConfig{WriterNode: netsim.NodeID(opts.Name + "-writer"), WriterAZ: 0}
	var db *engine.DB
	var err error
	if restored {
		db, _, err = engine.Recover(context.Background(), fleet, vcfg, opts.engineConfig())
	} else {
		db, err = engine.Create(volume.Bootstrap(fleet, vcfg), opts.engineConfig())
	}
	if err != nil {
		fleet.Stop()
		return nil, err
	}
	if !opts.DisableBackground {
		fleet.Start()
	}
	return &Cluster{
		opts: opts, net: net, fleet: fleet, store: store, db: db,
		proxy: zdp.NewProxy(db),
	}, nil
}

// Close shuts the cluster down: replicas, writer, storage fleet.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, r := range c.replicas {
		r.inner.Close()
	}
	c.db.Close()
	c.fleet.Stop()
}

// VolumeID identifies the cluster's storage volume on a shared fleet
// (0 for a dedicated cluster from NewCluster).
func (c *Cluster) VolumeID() uint32 { return uint32(c.fleet.Vol()) }

// Begin starts a read-committed writer transaction.
func (c *Cluster) Begin() *Tx { return (*Tx)(c.db.Begin()) }

// BeginCtx starts a writer transaction whose reads are bounded by ctx;
// pair with Tx.CommitCtx for an end-to-end deadline.
func (c *Cluster) BeginCtx(ctx context.Context) *Tx { return (*Tx)(c.db.BeginCtx(ctx)) }

// BeginSnapshot starts a read-only transaction at a frozen view (the
// current volume durable LSN).
func (c *Cluster) BeginSnapshot() *Tx { return (*Tx)(c.db.BeginSnapshot()) }

// BeginSnapshotCtx is BeginSnapshot with reads bounded by ctx.
func (c *Cluster) BeginSnapshotCtx(ctx context.Context) *Tx {
	return (*Tx)(c.db.BeginSnapshotCtx(ctx))
}

// ErrDeadlineExceeded is returned by ctx-bounded operations whose deadline
// fired first. For CommitCtx specifically, the commit is not withdrawn:
// it may still become durable after the caller has given up — the caller
// must treat the outcome as unknown (see DESIGN.md, "Deadlines &
// cancellation").
var ErrDeadlineExceeded = engine.ErrDeadlineExceeded

// Put writes one row in its own transaction, returning once durable.
func (c *Cluster) Put(key, val []byte) error { return c.db.Put(key, val) }

// Get reads one row (read committed).
func (c *Cluster) Get(key []byte) ([]byte, bool, error) { return c.db.Get(key) }

// GetCtx reads one row (read committed) with the read bounded by ctx.
func (c *Cluster) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	return c.db.GetCtx(ctx, key)
}

// Delete removes one row in its own transaction.
func (c *Cluster) Delete(key []byte) error { return c.db.Delete(key) }

// Scan visits rows with from <= key < to in key order in an autocommit
// read transaction; to == nil is unbounded. key and val may alias a cached
// page, which a later update rewrites in place: they are valid only during
// fn, and a caller that keeps them copies them.
func (c *Cluster) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	tx := c.Begin()
	defer tx.Abort()
	return tx.Scan(from, to, fn)
}

// Rows returns the approximate number of live rows.
func (c *Cluster) Rows() (uint64, error) { return c.db.Rows() }

// AddReplica attaches a read replica in the given AZ (up to 15 live ones,
// §4.2.4).
func (c *Cluster) AddReplica(name string, az int) (*Replica, error) {
	c.replicas = c.liveReplicas()
	if len(c.replicas) >= 15 {
		return nil, errors.New("aurora: replica limit (15) reached")
	}
	r := replica.Attach(c.db, c.fleet, replica.Config{
		Name:       netsim.NodeID(fmt.Sprintf("%s-replica-%s", c.opts.Name, name)),
		AZ:         netsim.AZ(az % 3),
		CachePages: c.opts.CachePages,
		Tracer:     c.db.Tracer(),
	})
	rep := &Replica{inner: r}
	c.replicas = append(c.replicas, rep)
	return rep, nil
}

// liveReplicas returns the cluster's replicas that have not detached.
func (c *Cluster) liveReplicas() []*Replica {
	var live []*Replica
	for _, r := range c.replicas {
		if !r.inner.Closed() {
			live = append(live, r)
		}
	}
	return live
}

// CrashWriter kills the writer instance abruptly. The storage fleet keeps
// all durable state; call Failover to bring up a new writer.
func (c *Cluster) CrashWriter() { c.db.Crash() }

// Failover recovers the volume and attaches a fresh writer instance,
// returning the recovery report. Replicas attached to the old writer
// detached themselves when its stream ended: their reads return
// ErrReplicaClosed, and they pin nothing in the new writer's read-point
// registry, so storage GC runs on at its MRPL. Attach new replicas with
// AddReplica.
func (c *Cluster) Failover() (*RecoveryReport, error) {
	c.writerGen++
	db, rep, err := c.recoverWriter(netsim.AZ(c.writerGen % 3))
	if err != nil {
		return nil, err
	}
	c.proxy = zdp.NewProxy(db)
	return &RecoveryReport{
		VCL: uint64(rep.VCL), VDL: uint64(rep.VDL), Epoch: rep.Epoch,
		Duration: rep.Duration, NodesContacted: rep.Contacted,
	}, nil
}

// recoverWriter runs volume recovery and brings up the next-generation
// writer instance in az (the caller has already bumped writerGen). On
// success it becomes the cluster's writer and the cluster forgets the old
// writer's replicas, which detached when its stream ended.
func (c *Cluster) recoverWriter(az netsim.AZ) (*engine.DB, *volume.RecoveryReport, error) {
	db, rep, err := engine.Recover(context.Background(), c.fleet, volume.ClientConfig{
		WriterNode: netsim.NodeID(fmt.Sprintf("%s-writer-g%d", c.opts.Name, c.writerGen)),
		WriterAZ:   az,
	}, c.opts.engineConfig())
	if err != nil {
		return nil, nil, err
	}
	c.db = db
	c.replicas = nil
	return db, rep, nil
}

// RecoveryReport summarises a volume recovery (§4.3): no redo is replayed
// at the database; the volume's durable points are re-established and the
// uncommitted tail truncated.
type RecoveryReport struct {
	VCL            uint64
	VDL            uint64
	Epoch          uint64
	Duration       time.Duration
	NodesContacted int
}

// BackupNow stages a backup of every segment to the object store (the
// continuous background backup runs anyway when background loops are on;
// this forces a consistent-enough point for RestoreAt). It returns how
// many segments were backed up.
func (c *Cluster) BackupNow() int {
	if c.store == nil {
		return 0
	}
	n := 0
	for g := 0; g < c.fleet.PGs(); g++ {
		for r := 0; r < c.fleet.Quorum().V; r++ {
			if v := c.fleet.Node(core.PGID(g), r).BackupNow(); v > 0 {
				n++
			}
		}
	}
	return n
}

// RestoreAt performs a point-in-time restore: it provisions a brand-new
// cluster (own network, own storage fleet) from the newest backups at or
// before asOf, runs volume recovery to a consistent durable point, and
// returns it. The source cluster is untouched.
func (c *Cluster) RestoreAt(name string, asOf time.Time) (*Cluster, error) {
	if c.store == nil {
		return nil, errors.New("aurora: cluster has no backup store")
	}
	net := newNetwork(c.opts.Network)
	fcfg := c.opts.fleetConfig(net, c.store)
	fcfg.Vol = c.fleet.Vol()
	fleet, _, err := volume.RestoreFleet(fcfg, asOf)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	opts.Name = name
	return attach(opts, net, c.store, fleet, true)
}

// GrowthReport summarises one GrowVolume call.
type GrowthReport struct {
	AddedPGs     []int // protection-group IDs appended to the volume
	FromEpoch    uint64
	ToEpoch      uint64
	StripesMoved int
	PagesCopied  uint64
	Duration     time.Duration
}

// GrowVolume appends n protection groups to the storage volume and
// rebalances page stripes onto them while the workload continues (§3:
// Aurora volumes grow by appending protection groups on demand). Writes
// framed during a stripe's brief cutover window queue behind the geometry
// fence — they never fail — and reads keep flowing throughout, routed by
// read point. A second call while one is rebalancing returns an error.
func (c *Cluster) GrowVolume(n int) (*GrowthReport, error) {
	rep, err := c.db.Volume().Grow(n)
	if err != nil {
		return nil, err
	}
	added := make([]int, len(rep.AddedPGs))
	for i, pg := range rep.AddedPGs {
		added[i] = int(pg)
	}
	return &GrowthReport{
		AddedPGs:     added,
		FromEpoch:    rep.FromEpoch,
		ToEpoch:      rep.ToEpoch,
		StripesMoved: rep.StripesMoved,
		PagesCopied:  rep.PagesCopied,
		Duration:     rep.Duration,
	}, nil
}

// FailAZ fails (or restores) an entire availability zone. With the 4/6
// quorum, writes and reads continue through a single AZ failure.
func (c *Cluster) FailAZ(az int, down bool) { c.net.SetAZDown(netsim.AZ(az%3), down) }

// CrashStorageNode crashes (or restarts) one segment replica.
func (c *Cluster) CrashStorageNode(pg, replicaIdx int, down bool) {
	n := c.fleet.Node(core.PGID(pg), replicaIdx%c.fleet.Quorum().V)
	if down {
		n.Crash()
	} else {
		n.Restart()
		n.GossipOnce()
	}
}

// RepairStorageNode re-replicates a segment from its peers after a wipe.
func (c *Cluster) RepairStorageNode(pg, replicaIdx int) error {
	return c.fleet.RepairSegment(core.PGID(pg), replicaIdx%c.fleet.Quorum().V)
}

// Patch performs a zero-downtime patch (§7.4): it waits for a quiet
// instant, spools session state, swaps in a freshly recovered engine and
// resumes. Connections held through the cluster's proxy survive; read
// replicas do not — the patched-out engine's stream ends, so they detach as
// after Failover, and are re-added with AddReplica.
func (c *Cluster) Patch(timeout time.Duration) (sessions int, pause time.Duration, err error) {
	rep, err := c.proxy.Patch(func(old *engine.DB) (*engine.DB, error) {
		old.Crash()
		c.writerGen++
		db, _, err := c.recoverWriter(0)
		return db, err
	}, timeout)
	if err != nil {
		return 0, 0, err
	}
	return rep.Sessions, rep.PauseLatency, nil
}

// Proxy exposes the session proxy for connection-oriented use (ZDP demos).
func (c *Cluster) Proxy() *zdp.Proxy { return c.proxy }

// Tracer returns the writer's causal-tracing collector: per-stage latency
// attribution and slowest-exemplar commit/read traces. Sampling is toggled
// with Tracer().SetSampleEvery (or Options.TraceEvery at creation).
func (c *Cluster) Tracer() *trace.Collector { return c.db.Tracer() }

// Stats is a cluster-wide snapshot.
type Stats struct {
	Commits         uint64
	Aborts          uint64
	VDL             uint64
	CacheHits       uint64
	CacheMisses     uint64
	NetworkMessages uint64
	NetworkBytes    uint64
	ReplicaCount    int // replicas attached and not closed
	BackupObjects   int

	// Commit-pipeline gauges: framing critical sections, group sizes, and
	// the commit latency distribution (lock-free histograms on the hot path).
	FramingOps    uint64
	MeanGroupSize float64
	MaxGroupSize  uint64
	CommitP50     time.Duration
	CommitP95     time.Duration
	CommitP99     time.Duration

	// Gray-failure tolerance counters (the §4.2.3/§3.3 machinery): read/
	// write retries, hedged reads, responses lost after a successful
	// segment read, and fleet self-repairs.
	ReadRetries   uint64
	WriteRetries  uint64
	WriteFailures uint64
	Hedges        uint64
	HedgeWins     uint64
	HedgeCancels  uint64 // losing hedge attempts actively canceled by a winner
	AutoRepairs   uint64
	RespDrops     uint64

	// The writer's per-replica sender pipelines: physical exchanges with a
	// replica (redeliveries included), batches x replicas handed to them, and
	// how many of those found the replica's whole window of flights in the air
	// and sat out a round trip that was not their own. Shipments / Flights is
	// the coalescing factor of §3.2's IO flow.
	Flights         uint64
	Shipments       uint64
	ShipmentsWaited uint64

	// Abandons counts network waits given up because a deadline fired
	// (netsim-level: the message may still be delivered).
	Abandons uint64

	// Role-split byte accounting (Options.LogSplit). LogBytes is redo
	// shipped synchronously on the commit path; PageFeedBytes is redo the
	// page tier pulled asynchronously. With the split on, LogBytes per
	// commit shrinks (3 copies instead of 6) while PageFeedBytes absorbs
	// the deferred fan-out.
	LogBytes      uint64
	PageFeedBytes uint64

	// Volume geometry & growth (§3): the routing-table epoch, the current
	// PG count, and the rebalancer's progress counters.
	GeometryEpoch         uint64
	PGs                   int
	RebalanceStripesMoved uint64
	RebalancePagesCopied  uint64
	GeometryReadRetries   uint64

	// TracesSampled counts finished causal traces (0 with sampling off).
	TracesSampled uint64
}

// Stats returns a cluster-wide snapshot.
func (c *Cluster) Stats() Stats {
	es := c.db.Stats()
	ns := c.net.Stats()
	s := Stats{
		Commits: es.Commits, Aborts: es.Aborts, VDL: uint64(es.Volume.VDL),
		CacheHits: es.Cache.Hits, CacheMisses: es.Cache.Misses,
		NetworkMessages: ns.Messages, NetworkBytes: ns.Bytes,
		ReplicaCount:  len(c.liveReplicas()),
		FramingOps:    es.Pipeline.Frames,
		MeanGroupSize: es.Pipeline.MeanGroupSize,
		MaxGroupSize:  es.Pipeline.MaxGroupSize,
		CommitP50:     es.Pipeline.CommitP50,
		CommitP95:     es.Pipeline.CommitP95,
		CommitP99:     es.Pipeline.CommitP99,
		ReadRetries:   es.Volume.ReadRetries,
		WriteRetries:  es.Volume.WriteRetries,
		WriteFailures: es.Volume.WriteFailures,
		Hedges:        es.Volume.Hedges,
		HedgeWins:     es.Volume.HedgeWins,
		HedgeCancels:  es.Volume.HedgeCancels,
		AutoRepairs:   es.Volume.AutoRepairs,
		Abandons:      ns.Abandons,

		Flights:         es.Volume.Flights,
		Shipments:       es.Volume.Shipments,
		ShipmentsWaited: es.Volume.ShipmentsWaited,

		LogBytes:      es.Volume.LogBytes,
		PageFeedBytes: es.Volume.PageFeedBytes,
		RespDrops:     es.Volume.RespDrops,
		TracesSampled: es.Trace.Finished,

		GeometryEpoch:         es.Volume.GeometryEpoch,
		PGs:                   es.Volume.PGs,
		RebalanceStripesMoved: es.Volume.RebalanceStripesMoved,
		RebalancePagesCopied:  es.Volume.RebalancePagesCopied,
		GeometryReadRetries:   es.Volume.GeomRetries,
	}
	if c.store != nil {
		s.BackupObjects = c.store.Count()
	}
	return s
}

// Tx is a transaction on the writer instance: the engine's transaction
// itself, so Begin makes one object, not a wrapper around it.
type Tx engine.Tx

// Get returns the value for key as seen by this transaction.
func (t *Tx) Get(key []byte) ([]byte, bool, error) { return (*engine.Tx)(t).Get(key) }

// Put inserts or updates a row under its exclusive row lock.
func (t *Tx) Put(key, val []byte) error { return (*engine.Tx)(t).Put(key, val) }

// Delete removes a row under its exclusive row lock.
func (t *Tx) Delete(key []byte) error { return (*engine.Tx)(t).Delete(key) }

// Scan visits rows in range, overlaying this transaction's writes.
func (t *Tx) Scan(from, to []byte, fn func(k, v []byte) bool) error {
	return (*engine.Tx)(t).Scan(from, to, fn)
}

// Commit makes the transaction durable: it returns once the volume durable
// LSN has passed the commit record (asynchronous commit, §4.2.2).
func (t *Tx) Commit() error { return (*engine.Tx)(t).Commit() }

// CommitCtx is Commit with the acknowledgement wait bounded by ctx. When
// the deadline fires after the write set is applied, the commit still
// frames, ships and becomes durable; only this waiter detaches with an
// error wrapping ErrDeadlineExceeded.
func (t *Tx) CommitCtx(ctx context.Context) error { return (*engine.Tx)(t).CommitCtx(ctx) }

// Abort discards the transaction; nothing ever reached the log.
func (t *Tx) Abort() { (*engine.Tx)(t).Abort() }

// Replica is a read-only instance consuming the writer's redo stream.
type Replica struct{ inner *replica.Replica }

// ErrReplicaClosed is returned by reads on a replica that was closed, or
// whose writer crashed, closed or was patched out (see Failover).
var ErrReplicaClosed = replica.ErrClosed

// Get reads a row at the replica's current durable view.
func (r *Replica) Get(key []byte) ([]byte, bool, error) { return r.inner.Get(key) }

// GetCtx is Get with cold-page fetches bounded by ctx.
func (r *Replica) GetCtx(ctx context.Context, key []byte) ([]byte, bool, error) {
	return r.inner.GetCtx(ctx, key)
}

// Scan visits rows in range at the replica's current view.
func (r *Replica) Scan(from, to []byte, fn func(k, v []byte) bool) error {
	return r.inner.Scan(from, to, fn)
}

// WarmUp pre-loads pages so subsequent redo is applied in place.
func (r *Replica) WarmUp(from, to []byte) error { return r.inner.WarmUp(from, to) }

// Lag returns how many LSNs the replica trails the writer by.
func (r *Replica) Lag(c *Cluster) uint64 {
	w := uint64(c.db.VDL())
	rv := uint64(r.inner.VDL())
	if rv >= w {
		return 0
	}
	return w - rv
}

// Close detaches the replica.
func (r *Replica) Close() { r.inner.Close() }
