package main

import (
	"context"
	"fmt"

	"aurora"
	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/replica"
	"aurora/internal/volume"
)

// statements is the surface the driver uses; aurora.Tx and engine.Tx
// both satisfy it.
type statements interface {
	Get(key []byte) ([]byte, bool, error)
	Put(key, val []byte) error
	Commit() error
	Abort()
}

// system is what a run needs from the stack under test, whichever way the
// stack was put together.
type system struct {
	begin      func() statements
	replicaGet func(key []byte) ([]byte, bool, error) // nil without a replica
	replicaLag func() uint64
	netStats   func() (msgs, bytes uint64)
	// failover crashes the writer, recovers the volume and attaches a fresh
	// writer. The replica's stream dies with the old writer.
	failover func() error
	close    func()
	// stack holds a handle on every layer for counter deltas; nil when the
	// system is an aurora.Cluster, which hides them.
	stack *stack
}

// newClusterSystem builds the stack the way a user does.
func newClusterSystem(s *spec) (*system, error) {
	c, err := aurora.NewCluster(s.opts)
	if err != nil {
		return nil, err
	}
	sys := &system{
		begin: func() statements { return c.Begin() },
		netStats: func() (uint64, uint64) {
			st := c.Stats()
			return st.NetworkMessages, st.NetworkBytes
		},
		failover: func() error {
			c.CrashWriter()
			_, err := c.Failover()
			return err
		},
		close: c.Close,
	}
	if s.replicaReads > 0 {
		r, err := c.AddReplica("r1", 1)
		if err != nil {
			c.Close()
			return nil, err
		}
		sys.replicaGet = r.Get
		sys.replicaLag = func() uint64 { return r.Lag(c) }
	}
	return sys, nil
}

// stack is the same cluster assembled from the constructors
// aurora.NewCluster uses, keeping every layer reachable.
type stack struct {
	opts  aurora.Options
	net   *netsim.Network
	fleet *volume.Fleet
	store *objstore.Store
	db    *engine.DB
	rep   *replica.Replica
	gen   int
}

// traceRing is how many finished traces the program's collector keeps for
// the critical-path shares (the engine's default is 256). A commit trace is
// over a hundred spans, so the ring is bounded in memory, not by the window.
const traceRing = 2048

func (k *stack) engineConfig() engine.Config {
	return engine.Config{CachePages: k.opts.CachePages, LockTimeout: k.opts.LockTimeout,
		TraceRing: traceRing}
}

// newStackSystem mirrors aurora.NewCluster step for step.
func newStackSystem(s *spec) (*system, error) {
	o := s.opts
	netCfg, dcfg := netsim.FastLocal(), disk.FastLocal()
	if o.Network == aurora.NetDatacenter {
		netCfg = netsim.Datacenter()
	}
	if o.RealisticDisks {
		dcfg = disk.NVMe()
	}
	k := &stack{opts: o, net: netsim.New(netCfg)}
	if !o.DisableBackup {
		k.store = objstore.New()
	}
	fleet, err := volume.NewFleet(volume.FleetConfig{
		Name: o.Name, Geometry: core.UniformGeometry(4), Net: k.net, Disk: dcfg, Store: k.store,
	})
	if err != nil {
		return nil, err
	}
	k.fleet = fleet
	vol := volume.Bootstrap(fleet, volume.ClientConfig{
		WriterNode: netsim.NodeID(o.Name + "-writer"), WriterAZ: 0,
	})
	k.db, err = engine.Create(vol, k.engineConfig())
	if err != nil {
		vol.Close()
		return nil, err
	}
	fleet.Start()
	sys := &system{
		begin: func() statements { return k.db.Begin() },
		netStats: func() (uint64, uint64) {
			st := k.net.Stats()
			return st.Messages, st.Bytes
		},
		failover: k.failover,
		close: func() {
			if k.rep != nil {
				k.rep.Close()
			}
			k.db.Close()
			k.fleet.Stop()
		},
		stack: k,
	}
	if s.replicaReads > 0 {
		k.rep = replica.Attach(k.db, fleet, replica.Config{
			Name: netsim.NodeID(o.Name + "-replica-r1"), AZ: 1,
			CachePages: o.CachePages, Tracer: k.db.Tracer(),
		})
		sys.replicaGet = k.rep.Get
		sys.replicaLag = func() uint64 {
			w, r := uint64(k.db.VDL()), uint64(k.rep.VDL())
			if r >= w {
				return 0
			}
			return w - r
		}
	}
	return sys, nil
}

func (k *stack) failover() error {
	k.db.Crash()
	if k.rep != nil {
		k.rep.Close()
		k.rep = nil
	}
	k.gen++
	db, _, err := engine.Recover(context.Background(), k.fleet, volume.ClientConfig{
		WriterNode: netsim.NodeID(fmt.Sprintf("%s-writer-g%d", k.opts.Name, k.gen)),
		WriterAZ:   netsim.AZ(k.gen % 3),
	}, k.engineConfig())
	if err != nil {
		return err
	}
	k.db = db
	return nil
}
