package volume

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/objstore"
)

// ErrNoBackup is returned when a protection group has no usable backup at
// or before the requested restore point.
var ErrNoBackup = errors.New("volume: no backup available for restore point")

// RestoreReport describes a point-in-time restore.
type RestoreReport struct {
	AsOf          time.Time
	Segments      int // segments loaded from the object store
	VDL           core.LSN
	Epoch         uint64
	GeometryEpoch uint64 // routing-table epoch recovered from the manifest
	PGs           int    // protection groups of the restored volume
	Duration      time.Duration
}

// RestoreFleet provisions a brand-new fleet whose state is the newest
// continuous backup at or before asOf — point-in-time restore (§1, §5:
// "backing up and restoring data from and to those volumes"). Storage
// nodes stage full images and the deltas on top of them to the object
// store continuously and independently (storage.Node.BackupNow); each
// segment is loaded by the one backup reader, storage.Node.LoadBackup. The
// restored segments are mutually inconsistent by up to one backup
// interval; the standard volume recovery protocol then
// brings the restored volume to a consistent durable point exactly as it
// would after a crash: gossip to completeness, compute VCL/VDL, truncate
// the tail.
//
// The source fleet is untouched: restore always creates a new volume, as
// the managed service does.
//
// cfg.Vol selects which tenant's namespaced backups and geometry manifest
// are read from the shared store, so restoring one tenant can never pick up
// another tenant's snapshots.
func RestoreFleet(cfg FleetConfig, asOf time.Time) (*Fleet, *RestoreReport, error) {
	if cfg.Store == nil {
		return nil, nil, errors.New("volume: restore requires an object store")
	}
	start := time.Now()
	// A grown volume routes pages differently than the day it was created:
	// recover the geometry that was in force at the restore point from the
	// manifest, so the restored fleet provisions the right number of PGs and
	// routes reads the way the backups were written. A volume from before
	// geometry manifests falls back to the caller-supplied geometry.
	if enc, _, err := cfg.Store.GetAsOf(GeometryManifestKey(cfg.Vol), asOf); err == nil {
		g, err := core.DecodeGeometry(enc)
		if err != nil {
			return nil, nil, fmt.Errorf("volume: geometry manifest: %w", err)
		}
		cfg.Geometry = g
	}
	f, err := NewFleet(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &RestoreReport{AsOf: asOf, GeometryEpoch: f.Geometry().Epoch(), PGs: f.PGs()}
	for g := 0; g < f.PGs(); g++ {
		pg := core.PGID(g)
		loaded := 0
		for r, n := range f.Replicas(pg) {
			err := n.LoadBackup(asOf)
			if errors.Is(err, objstore.ErrNotFound) {
				continue // this replica had no backup yet; repair below
			}
			if err != nil {
				return nil, nil, fmt.Errorf("pg %d replica %d: %w", g, r, err)
			}
			loaded++
		}
		if loaded < f.Quorum().Vr {
			return nil, nil, fmt.Errorf("pg %d: %d backups at or before %v: %w",
				g, loaded, asOf, ErrNoBackup)
		}
		rep.Segments += loaded
		// Replicas without a usable backup re-replicate from the restored
		// peers, bringing the PG back to full strength.
		for r, n := range f.Replicas(pg) {
			if n.SCL() == core.ZeroLSN && n.HighestLSN() == core.ZeroLSN {
				if err := f.RepairSegment(pg, r); err != nil {
					return nil, nil, fmt.Errorf("pg %d replica %d repair: %w", g, r, err)
				}
			}
		}
	}
	rep.Duration = time.Since(start)
	return f, rep, nil
}
