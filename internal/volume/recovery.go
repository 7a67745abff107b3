package volume

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"aurora/internal/core"
	"aurora/internal/storage"
)

// ErrQuorumLost is returned when a protection group cannot assemble a read
// quorum during recovery — the volume's durability cannot be proven.
var ErrQuorumLost = errors.New("volume: read quorum unavailable during recovery")

// RecoveryReport describes what a volume recovery found and did. Aurora's
// recovery never replays redo at the database: redo application lives on
// the storage nodes and runs continuously, so recovery only has to
// re-establish the durable points and truncate the uncommitted tail (§4.3).
type RecoveryReport struct {
	VCL        core.LSN // highest LSN every LSN below which is held, under a floor or annulled
	VDL        core.LSN // highest CPL <= VCL; volume truncated above this
	UpperBound core.LSN // provable bound on outstanding LSNs: max(VDL, previous To) + LAL
	Epoch      uint64   // the new truncation epoch
	PGs        int
	Contacted  int // storage nodes that answered
	Duration   time.Duration
	Tails      map[core.PGID]core.LSN // per-PG chain tails after truncation
}

// Recover attaches a new writer to a fleet with history: it contacts a
// read quorum of every protection group, lets the storage service complete
// its own gossip-driven repair, computes the VCL and VDL, writes an
// epoch-versioned truncation range that annuls every record above the VDL
// up to the provable allocation bound, and seeds a fresh client whose LSN
// space begins above that bound so annulled LSNs are never reused (§4.1,
// §4.3). ctx bounds the whole recovery conversation — probes, truncation
// sends — so a caller can abandon a recovery stuck on a slow fleet.
func Recover(ctx context.Context, f *Fleet, cfg ClientConfig) (*Client, *RecoveryReport, error) {
	start := time.Now()
	lal := cfg.LAL
	if lal <= 0 {
		lal = core.DefaultLAL
	}
	// The new writer must exist on the network before it can probe.
	f.cfg.Net.AddNode(cfg.WriterNode, cfg.WriterAZ)

	rep := &RecoveryReport{PGs: f.PGs(), Tails: make(map[core.PGID]core.LSN)}

	reachables := make([][]*storage.Node, f.PGs())
	var views []storage.RecoveryView

	// Pass 1: contact a read quorum per PG, let storage self-repair, and ask
	// each replica what it holds.
	for g := 0; g < f.PGs(); g++ {
		pg := core.PGID(g)
		var reachable []*storage.Node
		for _, n := range f.Replicas(pg) {
			if n.Down() {
				continue
			}
			// A recovery probe must actually cross the network.
			if err := f.cfg.Net.Send(ctx, cfg.WriterNode, n.NodeID(), reqSize); err != nil {
				if ctx.Err() != nil {
					return nil, nil, fmt.Errorf("volume: recovery abandoned: %w", ctx.Err())
				}
				continue
			}
			reachable = append(reachable, n)
		}
		if f.q.Split() {
			// Role-split quorum: durability is proven by the log tier alone
			// (acks wait only on LogVw of LogV), so recovery needs a log-tier
			// read quorum — LogVr log replicas — plus at least one
			// page-capable replica to serve materialized history afterwards.
			logUp, pageUp := 0, 0
			for _, n := range reachable {
				if n.Role() == core.RoleLog {
					logUp++
				} else {
					pageUp++
				}
			}
			if logUp < f.q.LogVr || pageUp < 1 {
				return nil, nil, fmt.Errorf("pg %d: %d/%d log replicas (need %d), %d page replicas (need 1): %w",
					g, logUp, f.q.LogV, f.q.LogVr, pageUp, ErrQuorumLost)
			}
		} else if len(reachable) < f.q.Vr {
			return nil, nil, fmt.Errorf("pg %d: %d of %d reachable, need %d: %w",
				g, len(reachable), f.q.V, f.q.Vr, ErrQuorumLost)
		}
		rep.Contacted += len(reachable)
		// The storage service completes its own recovery first: gossip
		// until the reachable replicas agree (§4.1).
		storage.SyncGroup(reachable)
		for _, n := range reachable {
			views = append(views, n.RecoveryView())
		}
		reachables[g] = reachable
	}

	// Passes 2 and 3: the durable points, from what pass 1 learned. The last
	// writer began at the previous To and may have allocated LAL above it.
	vcl, vdl, latest := recoveryPoint(views)
	rep.VCL, rep.VDL = vcl, vdl
	upper := max(vdl, latest.To) + core.LSN(lal)
	rep.UpperBound = upper
	rep.Epoch = latest.Epoch + 1

	// Pass 4: truncate (VDL, upper] everywhere, durably and epoch-guarded,
	// so an interrupted-and-restarted recovery cannot resurrect the tail.
	tr := core.TruncationRange{Epoch: rep.Epoch, From: vdl, To: upper}
	for g, reachable := range reachables {
		for _, n := range reachable {
			if err := f.cfg.Net.Send(ctx, cfg.WriterNode, n.NodeID(), reqSize); err != nil {
				if ctx.Err() != nil {
					return nil, nil, fmt.Errorf("volume: recovery abandoned: %w", ctx.Err())
				}
				continue
			}
			if err := n.Truncate(tr); err != nil {
				return nil, nil, fmt.Errorf("pg %d truncate: %w", g, err)
			}
		}
	}

	// Pass 5: chain tails per PG (equal across reachable replicas after
	// sync + truncation) seed the framer's backlinks and read routing.
	tails := make(map[core.PGID]core.LSN, f.PGs())
	for g, reachable := range reachables {
		var tail core.LSN
		for _, n := range reachable {
			if s := n.SCL(); s > tail {
				tail = s
			}
		}
		if tail > core.ZeroLSN {
			tails[core.PGID(g)] = tail
		}
		rep.Tails[core.PGID(g)] = tail
	}

	// The new LSN space begins above the provable bound: LSNs in the
	// annulled range are never reused, so a replica that slept through
	// recovery can never confuse an old record with a new one.
	c := newClient(f, cfg, upper, tails, rep.Epoch)
	rep.Duration = time.Since(start)
	return c, rep, nil
}

// recoveryPoint computes the volume's durable points from the reachable
// replicas' views, with no I/O, and returns the latest truncation among them.
//
// The framer numbers records one by one from the one allocator, so LSN L's
// volume predecessor is L-1. The VCL walks up from the highest floor while
// some replica holds the next LSN, jumping the latest truncation range. The
// first LSN no reachable replica holds is on no write quorum (one would meet
// the read quorum, and a replica that collected it has it under its floor),
// so no VDL ever passed it.
//
// VDL: the highest CPL at or below the VCL among the floors' CPLs and the held
// CPLs, outside the latest range — a replica that missed that truncation still
// holds the records it annulled, or has collected them under its floor.
func recoveryPoint(views []storage.RecoveryView) (vcl, vdl core.LSN, latest core.TruncationRange) {
	var held []core.LSN
	for _, v := range views {
		vcl = max(vcl, v.Floor)
		if v.Trunc.Supersedes(latest) {
			latest = v.Trunc
		}
		held = append(held, v.Held...)
	}
	slices.Sort(held)
	next := vcl + 1
	for _, lsn := range slices.Compact(held) {
		if latest.Annuls(next) {
			next = latest.To + 1
		}
		if lsn > next {
			break
		}
		if lsn == next {
			vcl, next = lsn, lsn+1
		}
	}
	for _, v := range views {
		if !latest.Annuls(v.FloorCPL) {
			vdl = max(vdl, v.FloorCPL)
		}
		for _, c := range v.CPLs {
			if c <= vcl && !latest.Annuls(c) {
				vdl = max(vdl, c)
			}
		}
	}
	return vcl, vdl, latest
}
