package storage

import (
	"fmt"
	"sync"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/quorum"
)

// PoolConfig describes a shared multi-tenant storage fleet.
type PoolConfig struct {
	Name  string // host ID prefix, e.g. "fleet" -> fleet-h00, fleet-h01, ...
	Hosts int    // physical machines, spread round-robin over the 3 AZs
	Net   *netsim.Network
	Disk  disk.Config
	Store *objstore.Store
	QoS   QoSConfig
}

// Pool is a fleet of storage hosts shared by many tenant volumes. Volumes do
// not own hosts; they own segments that the pool places onto hosts with
// AZ-spread and blast-radius limits (quorum.PlacePG). The pool is the
// service-level isolation boundary Aurora describes: tenancy is enforced by
// registries, QoS and placement, not by dedicating hardware per customer.
type Pool struct {
	cfg PoolConfig

	mu    sync.Mutex
	hosts []*Host
}

// NewPool provisions the fleet's hosts round-robin across the three AZs of
// the Aurora quorum: host i lands in AZ i mod 3, so every AZ has ⌈Hosts/3⌉
// machines and any quorum's AZ-spread constraint is satisfiable whenever
// Hosts >= 3.
func NewPool(cfg PoolConfig) *Pool {
	p := &Pool{cfg: cfg}
	for i := 0; i < cfg.Hosts; i++ {
		p.hosts = append(p.hosts, NewHost(HostConfig{
			ID:    netsim.NodeID(fmt.Sprintf("%s-h%02d", cfg.Name, i)),
			AZ:    netsim.AZ(i % 3),
			Net:   cfg.Net,
			Disk:  cfg.Disk,
			Store: cfg.Store,
			QoS:   cfg.QoS,
		}))
	}
	return p
}

// Hosts snapshots the fleet's machines.
func (p *Pool) Hosts() []*Host {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Host(nil), p.hosts...)
}

// Store returns the pool's shared object store (may be nil).
func (p *Pool) Store() *objstore.Store { return p.cfg.Store }

// Place chooses one host per replica of volume vol's protection group pg
// under the quorum's AZ-spread rules and the pool's blast-radius scoring.
// The placement lock covers the whole choose step so concurrent volume
// provisioning sees each other's assignments.
func (p *Pool) Place(vol core.VolumeID, pg core.PGID, q quorum.Config) ([]*Host, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	infos := make([]quorum.HostInfo, len(p.hosts))
	for i, h := range p.hosts {
		tenants := h.Tenants()
		shared := len(tenants)
		if _, mine := tenants[vol]; mine {
			shared--
		}
		total := 0
		for _, n := range tenants {
			total += n
		}
		infos[i] = quorum.HostInfo{
			AZ:       int(h.AZ()),
			Segments: total,
			Tenant:   tenants[vol],
			Shared:   shared,
		}
	}
	picks, err := quorum.PlacePG(q, infos)
	if err != nil {
		return nil, fmt.Errorf("place %s pg=%d: %w", vol, pg, err)
	}
	out := make([]*Host, len(picks))
	for i, j := range picks {
		out[i] = p.hosts[j]
	}
	return out, nil
}

// TenantStats aggregates per-tenant QoS counters across every host.
func (p *Pool) TenantStats() map[core.VolumeID]TenantStats {
	p.mu.Lock()
	hosts := append([]*Host(nil), p.hosts...)
	p.mu.Unlock()
	out := make(map[core.VolumeID]TenantStats)
	for _, h := range hosts {
		for vol, st := range h.QoSStats() {
			agg := out[vol]
			agg.add(st)
			out[vol] = agg
		}
	}
	return out
}
