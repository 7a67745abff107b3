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
	VCL        core.LSN // highest LSN with all prior records available
	VDL        core.LSN // highest CPL <= VCL; volume truncated above this
	UpperBound core.LSN // provable bound on outstanding LSNs (VDL + LAL)
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
	pgs := make([]pgSummary, f.PGs())
	var maxEpoch uint64

	// Pass 1: contact a read quorum per PG and let storage self-repair.
	for g := 0; g < f.PGs(); g++ {
		pg := core.PGID(g)
		var reachable []*storage.Node
		for _, n := range f.Replicas(pg) {
			if n.Down() || f.cfg.Net.NodeDown(n.NodeID()) {
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
		sum := &pgs[g]
		for _, n := range reachable {
			sum.scl = max(sum.scl, n.SCL())
			sum.highest = max(sum.highest, n.HighestLSN())
			sum.cpls = append(sum.cpls, n.CPLs())
			maxEpoch = max(maxEpoch, n.TruncationEpoch())
		}
		reachables[g] = reachable
	}

	// Passes 2 and 3: the durable points, from what pass 1 learned.
	vcl, vdl := recoveryPoint(pgs)
	rep.VCL, rep.VDL = vcl, vdl
	upper := vdl + core.LSN(lal)
	rep.UpperBound = upper
	rep.Epoch = maxEpoch + 1

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

// pgSummary is what recovery learned of one protection group from its
// reachable replicas: the highest SCL among them, the highest LSN any of them
// knows of, and each one's CPLs in ascending order.
type pgSummary struct {
	scl, highest core.LSN
	cpls         [][]core.LSN
}

// recoveryPoint computes the volume's durable points from per-PG summaries,
// with no I/O.
//
// VCL: a PG whose replicas hold records above their completeness point has
// lost a predecessor forever (those records can never have been acked — a
// write quorum would intersect the read quorum) and caps the VCL at its SCL.
// PGs with clean chains impose no cap: absence of a record from a read quorum
// proves it never reached a write quorum.
//
// VDL: the highest CPL at or below the VCL, across all PGs.
func recoveryPoint(pgs []pgSummary) (vcl, vdl core.LSN) {
	for _, pg := range pgs {
		vcl = max(vcl, pg.scl)
	}
	for _, pg := range pgs {
		if pg.highest > pg.scl && pg.scl < vcl {
			vcl = pg.scl
		}
	}
	for _, pg := range pgs {
		for _, cpls := range pg.cpls {
			// The first CPL above the VCL; the one before it is the floor.
			if i, found := slices.BinarySearch(cpls, vcl); found {
				vdl = max(vdl, vcl)
			} else if i > 0 {
				vdl = max(vdl, cpls[i-1])
			}
		}
	}
	return vcl, vdl
}
