// Package quorum implements Aurora's quorum model (§2): V copies of each
// data item spread across availability zones, a write quorum Vw and a read
// quorum Vr obeying Vr+Vw > V and Vw > V/2. It provides the write-ack
// tracker used on the volume write path, availability predicates used by
// chaos tests, and a Monte-Carlo durability model that reproduces the
// paper's argument that 2/3 quorums are inadequate while the 4/6 AZ+1
// design survives an AZ failure plus background noise (§2.1–2.2).
package quorum

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"aurora/internal/core"
)

// Config describes a quorum scheme and its placement across AZs.
//
// When LogV > 0 the scheme is role-split (Taurus-style, PAPERS.md):
// replicas 0..LogV-1 form a synchronous log tier and the remaining
// V-LogV replicas form an asynchronously-fed page tier. Commit
// acknowledgment then needs only LogVw log-tier acks; V/Vw/Vr keep
// describing the whole group for placement and legacy availability
// predicates.
type Config struct {
	V     int // total copies
	Vw    int // write quorum
	Vr    int // read quorum
	AZs   int // number of availability zones copies are spread over
	PerAZ int // copies per AZ (V == AZs*PerAZ for the symmetric schemes)

	LogV  int // log-tier copies (0 = no split, all replicas are full)
	LogVw int // log-tier write quorum for commit acknowledgment
	LogVr int // log-tier read quorum (recovery must reach this many)
}

// Aurora returns the paper's design point: 6 copies, 2 per AZ across 3 AZs,
// write quorum 4/6, read quorum 3/6.
func Aurora() Config { return Config{V: 6, Vw: 4, Vr: 3, AZs: 3, PerAZ: 2} }

// TwoOfThree returns the common 2/3 quorum with one copy per AZ — the
// scheme §2.1 argues is inadequate.
func TwoOfThree() Config { return Config{V: 3, Vw: 2, Vr: 2, AZs: 3, PerAZ: 1} }

// MirroredFourOfFour models the mirrored-MySQL configuration of §3.1
// (primary EBS + mirror, standby EBS + mirror, all synchronous): 4 copies
// across 2 AZs where every write must reach all 4.
func MirroredFourOfFour() Config { return Config{V: 4, Vw: 4, Vr: 1, AZs: 2, PerAZ: 2} }

// TaurusMix returns the frugal replication mix (Taurus, PAPERS.md): the
// same six copies across three AZs as Aurora, but re-roled into a 3-way
// synchronous log tier (one log replica per AZ, 2/3 ack for commit) and
// three asynchronously-fed page replicas (one per AZ) that serve reads.
// Durability still rides on the log tier's majority; the page tier only
// needs one survivor because any page replica can be rebuilt from the
// retained log.
func TaurusMix() Config {
	return Config{V: 6, Vw: 4, Vr: 3, AZs: 3, PerAZ: 2, LogV: 3, LogVw: 2, LogVr: 2}
}

// Split reports whether the scheme separates a synchronous log tier from
// an asynchronous page tier.
func (c Config) Split() bool { return c.LogV > 0 }

// PageV returns the number of page-tier copies of a split scheme (0 when
// not split — every replica is full and page-capable).
func (c Config) PageV() int {
	if !c.Split() {
		return 0
	}
	return c.V - c.LogV
}

// Role returns what replica i does under this scheme. Low indices are the
// log tier so that write-tracker indices line up with sender indices.
func (c Config) Role(i int) core.ReplicaRole {
	if !c.Split() {
		return core.RoleFull
	}
	if i < c.LogV {
		return core.RoleLog
	}
	return core.RolePage
}

// LogTier returns the log tier viewed as a quorum scheme of its own — the
// config a write tracker resolves against when the split is on: LogVw of
// LogV acks commit, more than LogV-LogVw rejections make it impossible.
func (c Config) LogTier() Config {
	return Config{V: c.LogV, Vw: c.LogVw, Vr: c.LogVr, AZs: c.AZs, PerAZ: 1}
}

// Validate checks the two consistency rules from [6]: Vr + Vw > V (reads
// see the newest write) and Vw > V/2 (no conflicting writes), plus
// placement sanity.
func (c Config) Validate() error {
	if c.V <= 0 || c.Vw <= 0 || c.Vr <= 0 {
		return errors.New("quorum: V, Vw, Vr must be positive")
	}
	if c.Vr+c.Vw <= c.V {
		return fmt.Errorf("quorum: Vr+Vw=%d must exceed V=%d", c.Vr+c.Vw, c.V)
	}
	if 2*c.Vw <= c.V {
		return fmt.Errorf("quorum: 2*Vw=%d must exceed V=%d", 2*c.Vw, c.V)
	}
	if c.AZs > 0 && c.PerAZ > 0 && c.AZs*c.PerAZ != c.V {
		return fmt.Errorf("quorum: AZs*PerAZ=%d != V=%d", c.AZs*c.PerAZ, c.V)
	}
	if c.Split() {
		if c.LogV >= c.V {
			return fmt.Errorf("quorum: split needs at least one page replica, LogV=%d of V=%d", c.LogV, c.V)
		}
		if c.LogVw <= 0 || c.LogVr <= 0 {
			return errors.New("quorum: split needs positive LogVw and LogVr")
		}
		if c.LogVw > c.LogV || c.LogVr > c.LogV {
			return fmt.Errorf("quorum: log quorums (Vw=%d, Vr=%d) cannot exceed LogV=%d", c.LogVw, c.LogVr, c.LogV)
		}
		// The log tier carries durability alone, so it must obey the same
		// two consistency rules the whole group does.
		if c.LogVr+c.LogVw <= c.LogV {
			return fmt.Errorf("quorum: LogVr+LogVw=%d must exceed LogV=%d", c.LogVr+c.LogVw, c.LogV)
		}
		if 2*c.LogVw <= c.LogV {
			return fmt.Errorf("quorum: 2*LogVw=%d must exceed LogV=%d", 2*c.LogVw, c.LogV)
		}
		if c.AZs > 0 && c.LogV > c.AZs {
			return fmt.Errorf("quorum: LogV=%d log replicas cannot spread one-per-AZ over %d AZs", c.LogV, c.AZs)
		}
	}
	return nil
}

// ReplicaAZ returns the AZ index hosting replica i under symmetric
// placement (two consecutive replicas per AZ for the Aurora scheme). A
// split scheme stripes each tier across the AZs instead, so that losing
// one AZ costs at most one log replica and one page replica.
func (c Config) ReplicaAZ(i int) int {
	if c.PerAZ == 0 || c.AZs == 0 {
		return 0
	}
	if c.Split() {
		if i < c.LogV {
			return i % c.AZs
		}
		return (i - c.LogV) % c.AZs
	}
	return (i / c.PerAZ) % c.AZs
}

// WriteAvailable reports whether writes can proceed with the given number
// of failed copies.
func (c Config) WriteAvailable(failed int) bool { return c.V-failed >= c.Vw }

// ReadAvailable reports whether read quorum survives the given number of
// failed copies (and hence whether write quorum can be rebuilt, §2.1).
func (c Config) ReadAvailable(failed int) bool { return c.V-failed >= c.Vr }

// SurvivesAZPlusOne reports whether the scheme keeps read availability
// after losing one full AZ plus one additional copy — the paper's AZ+1
// durability goal.
func (c Config) SurvivesAZPlusOne() bool { return c.ReadAvailable(c.PerAZ + 1) }

// SurvivesAZForWrites reports whether the scheme keeps write availability
// after losing one full AZ.
func (c Config) SurvivesAZForWrites() bool { return c.WriteAvailable(c.PerAZ) }

// ErrQuorumImpossible is reported by a Tracker when enough replicas have
// rejected that the write quorum can never be reached.
var ErrQuorumImpossible = errors.New("quorum: write quorum unreachable")

// Tracker accumulates acknowledgements for one write (a log batch sent to
// all V replicas) and resolves once Vw have acked, or fails once more than
// V-Vw have rejected. Its whole state is one word — an acked and a nacked
// bitmask — updated by compare-and-swap, so it is safe for concurrent use,
// lives by value inside its owner, and resolves exactly once: the single
// Ack or Nack whose update crosses a threshold reports it, and that caller
// runs whatever follows from the resolution. A replica's first verdict
// stands, so the two thresholds can never both be crossed.
type Tracker struct {
	v, vw int
	masks atomic.Uint64 // acked mask in the low half, nacked mask in the high
}

// maxTracked is the widest replica set the two half-word masks can hold.
const maxTracked = 32

// NewTracker returns a tracker for one quorum write.
func NewTracker(cfg Config) Tracker {
	if cfg.V > maxTracked {
		panic(fmt.Sprintf("quorum: tracker holds at most %d replicas, got V=%d", maxTracked, cfg.V))
	}
	return Tracker{v: cfg.V, vw: cfg.Vw}
}

// failed reports whether the masks b put the write quorum out of reach, and
// settled whether they resolve the write either way.
func (t *Tracker) failed(b uint64) bool {
	return bits.OnesCount32(uint32(b>>maxTracked)) > t.v-t.vw
}

func (t *Tracker) settled(b uint64) bool {
	return bits.OnesCount32(uint32(b)) >= t.vw || t.failed(b)
}

// record sets replica i's bit in the half selected by shift unless the
// replica already has a verdict, and reports whether this call resolved the
// write.
func (t *Tracker) record(i int, shift uint) bool {
	for {
		old := t.masks.Load()
		if (old|old>>maxTracked)&(1<<uint(i)) != 0 {
			return false
		}
		upd := old | 1<<(uint(i)+shift)
		if t.masks.CompareAndSwap(old, upd) {
			return !t.settled(old) && t.settled(upd)
		}
	}
}

// Ack records a positive acknowledgement from replica i and reports whether
// this call resolved the write.
func (t *Tracker) Ack(i int) bool { return t.record(i, 0) }

// Nack records a failure from replica i (node down, send error...) and
// reports whether this call resolved the write.
func (t *Tracker) Nack(i int) bool { return t.record(i, maxTracked) }

// Resolved reports whether the write has already resolved. Delivery
// pipelines use it to stop redelivering a flight whose every batch has
// settled without this replica — gossip, not the writer, repairs the
// replica then (§3.3).
func (t *Tracker) Resolved() bool {
	return t.settled(t.masks.Load())
}

// Err returns nil on success, ErrQuorumImpossible when the quorum can no
// longer be reached. Only meaningful once the write has resolved.
func (t *Tracker) Err() error {
	if t.failed(t.masks.Load()) {
		return ErrQuorumImpossible
	}
	return nil
}

// Acks returns the number of positive acknowledgements so far.
func (t *Tracker) Acks() int { return bits.OnesCount32(uint32(t.masks.Load())) }
