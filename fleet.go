// Multi-tenant entry points: one StorageFleet shared by many independent
// volumes, the deployment shape of Aurora's actual storage service (§1:
// "thousands of customer volumes" per fleet). Each OpenVolume call gets a
// full Cluster — its own writer, LSN space, geometry and backups — whose
// segments are placed across the fleet's shared hosts with AZ-spread and
// blast-radius limits, and whose traffic is fair-share scheduled against
// every other tenant's by the hosts' QoS.

package aurora

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/volume"
)

// FleetOptions configures a shared multi-tenant storage fleet. The zero
// value is a working configuration: 9 hosts across 3 AZs, fast local
// network and disks, backups on, QoS shaping off.
type FleetOptions struct {
	// Name prefixes every host's network identity (default "fleet").
	Name string
	// Hosts is the number of physical storage machines, spread round-robin
	// over the three AZs (default 9). Must be >= the replication factor so
	// every protection group can spread per the quorum's AZ rules.
	Hosts int
	// Network selects the latency model shared by every tenant.
	Network NetworkProfile
	// RealisticDisks enables NVMe-like latencies on the hosts' SSDs.
	RealisticDisks bool
	// DisableBackup turns off the shared object store (and thus PITR).
	DisableBackup bool

	// --- Per-tenant QoS (per host; zero disables shaping on that path) ---

	// IngestBytesPerSec is each host's total foreground ingest budget,
	// fair-shared across its active tenants; a hot tenant is throttled to
	// capacity/activeTenants while idle capacity flows to whoever is busy.
	IngestBytesPerSec float64
	// ReadsPerSec is each host's foreground page-read budget, fair-shared
	// the same way.
	ReadsPerSec float64
	// Burst is how far one tenant may run ahead of its fair share before
	// shaping kicks in (bytes; 0 selects the default).
	Burst float64
	// MaxQueue caps each tenant's shaped-operation queue per host; beyond
	// it writes are rejected and retried by the tenant's own sender.
	MaxQueue int
}

// StorageFleet is a shared multi-tenant storage deployment: one network,
// one pool of storage hosts, one object store — many volumes.
type StorageFleet struct {
	opts  FleetOptions
	net   *netsim.Network
	pool  *storage.Pool
	store *objstore.Store

	mu      sync.Mutex
	nextVol core.VolumeID
	tenants map[core.VolumeID]*Cluster
	names   map[string]bool
	closed  bool
}

// NewStorageFleet provisions the shared hosts. Volumes are added with
// OpenVolume.
func NewStorageFleet(opts FleetOptions) (*StorageFleet, error) {
	if opts.Name == "" {
		opts.Name = "fleet"
	}
	if opts.Hosts == 0 {
		opts.Hosts = 9
	}
	if opts.Hosts < 3 {
		return nil, &OptionError{Field: "Hosts", Reason: "need at least one host per AZ (3)"}
	}
	if opts.Network != NetFast && opts.Network != NetDatacenter {
		return nil, &OptionError{Field: "Network", Reason: "unknown network profile"}
	}
	net := newNetwork(opts.Network)
	var store *objstore.Store
	if !opts.DisableBackup {
		store = objstore.New()
	}
	pool := storage.NewPool(storage.PoolConfig{
		Name:  opts.Name,
		Hosts: opts.Hosts,
		Net:   net,
		Disk:  diskConfig(opts.RealisticDisks),
		Store: store,
		QoS: storage.QoSConfig{
			IngestBytesPerSec: opts.IngestBytesPerSec,
			ReadsPerSec:       opts.ReadsPerSec,
			Burst:             opts.Burst,
			MaxQueue:          opts.MaxQueue,
		},
	})
	return &StorageFleet{
		opts:    opts,
		net:     net,
		pool:    pool,
		store:   store,
		tenants: make(map[core.VolumeID]*Cluster),
		names:   make(map[string]bool),
	}, nil
}

// Hosts returns the number of physical storage machines in the fleet.
func (f *StorageFleet) Hosts() int { return f.opts.Hosts }

// OpenVolume provisions a new tenant volume on the shared fleet and attaches
// a full cluster to it: its own writer instance, LSN space, geometry and
// namespaced backups, with segments placed across the shared hosts. The
// volume's name must be unique within the fleet (it namespaces the writer's
// network identity). Topology fields of opts that belong to the fleet —
// Network, RealisticDisks, DisableBackup — are ignored; the fleet's own
// settings apply.
func (f *StorageFleet) OpenVolume(name string, opts Options) (*Cluster, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		return nil, &OptionError{Field: "Name", Reason: "volume name required"}
	}
	if opts.PGs == 0 {
		opts.PGs = 4
	}
	opts.Name = name
	opts.Network = f.opts.Network
	opts.RealisticDisks = f.opts.RealisticDisks
	opts.DisableBackup = f.opts.DisableBackup

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("aurora: storage fleet closed")
	}
	if f.names[name] {
		f.mu.Unlock()
		return nil, fmt.Errorf("aurora: volume %q already open on this fleet", name)
	}
	f.nextVol++
	vol := f.nextVol
	f.names[name] = true
	f.mu.Unlock()

	fcfg := opts.fleetConfig(f.net, f.store)
	fcfg.Vol, fcfg.Pool = vol, f.pool
	fleet, err := volume.NewFleet(fcfg)
	if err != nil {
		f.forgetName(name)
		return nil, err
	}
	c, err := attach(opts, f.net, f.store, fleet, false)
	if err != nil {
		f.forgetName(name)
		return nil, err
	}
	f.mu.Lock()
	f.tenants[vol] = c
	f.mu.Unlock()
	return c, nil
}

func (f *StorageFleet) forgetName(name string) {
	f.mu.Lock()
	delete(f.names, name)
	f.mu.Unlock()
}

// TenantQoS aggregates one tenant's QoS counters across every host it
// touches: admitted work, fair-share throttling delays, and queue-cap
// rejections. Nonzero Throttles/Rejects on one tenant with quiet numbers on
// the others is the noisy-neighbor containment signature.
type TenantQoS struct {
	IngestBytes  uint64
	Reads        uint64
	Throttles    uint64
	Rejects      uint64
	ThrottleWait time.Duration
}

// TenantStats snapshots per-tenant QoS counters across the fleet's hosts,
// keyed by volume ID.
func (f *StorageFleet) TenantStats() map[uint32]TenantQoS {
	out := make(map[uint32]TenantQoS)
	for vol, st := range f.pool.TenantStats() {
		out[uint32(vol)] = TenantQoS{
			IngestBytes:  st.IngestBytes,
			Reads:        st.Reads,
			Throttles:    st.Throttles,
			Rejects:      st.Rejects,
			ThrottleWait: st.ThrottleWait,
		}
	}
	return out
}

// Close shuts down every open tenant cluster.
func (f *StorageFleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	tenants := make([]*Cluster, 0, len(f.tenants))
	for _, c := range f.tenants {
		tenants = append(tenants, c)
	}
	f.mu.Unlock()
	for _, c := range tenants {
		c.Close()
	}
}
