package volume

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/core"
	"aurora/internal/metrics"
	"aurora/internal/netsim"
	"aurora/internal/storage"
)

// HealthState classifies one segment replica from the volume client's
// vantage point. The storage fleet runs under a "continuous low level
// background noise of node, disk and network path failures" (§2.1); most of
// that noise is gray — a replica that is slow or flaky, not down — so a
// binary up/down view stalls the chain on exactly the nodes the quorum was
// meant to absorb.
type HealthState int

const (
	// Healthy: acks arrive at the latency its peers see.
	Healthy HealthState = iota
	// Degraded: alive but slow or briefly flaky; used last, never first.
	Degraded
	// Suspect: a failure streak long enough that the fleet's repair
	// monitor steps in (gossip catch-up or full segment repair, §2.3).
	Suspect
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Suspect:
		return "suspect"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Gray-failure thresholds.
const (
	// ewmaAlpha is the weight of a new latency sample.
	ewmaAlpha = 0.2
	// degradedFails consecutive failures mark a replica Degraded,
	// suspectFails mark it Suspect.
	degradedFails = 2
	suspectFails  = 5
	// A replica is also Degraded when its latency EWMA exceeds both
	// degradedLatencyFloor and degradedLatencyFactor times the best peer's
	// EWMA — the gray-slow signature.
	degradedLatencyFloor  = time.Millisecond
	degradedLatencyFactor = 8
	// hedgeMultPct sets the per-attempt read deadline, in percent of the
	// PG's windowed read p95: 300 is 3x. hedgeMax caps the deadline
	// (HealthConfig.HedgeMin is its floor).
	hedgeMultPct = 300
	hedgeMax     = 50 * time.Millisecond
	// monitorInterval paces the fleet's self-driven repair loop.
	monitorInterval = 5 * time.Millisecond
)

// HealthConfig holds the two seams the tracker's unit tests script; a fleet
// always runs the zero value's defaults.
type HealthConfig struct {
	// HedgeMin is the floor of the per-attempt read deadline (default
	// 250µs): 3x the windowed p95 read latency, clamped to [HedgeMin,
	// hedgeMax]. When an attempt exceeds it a hedge is launched to the
	// next-best replica (§4.2.3's tail-avoidance without quorum reads).
	HedgeMin time.Duration
	// WindowInterval is the rotation interval of the windowed read-latency
	// histograms the hedge deadline derives from (default 250ms at
	// simulation scale). The deadline reflects only the last one-to-two
	// windows of traffic, so a cold-start outlier stops inflating it one
	// rotation later — the failure mode of the old lifetime-P95 estimator.
	WindowInterval time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.HedgeMin <= 0 {
		c.HedgeMin = 250 * time.Microsecond
	}
	if c.WindowInterval <= 0 {
		c.WindowInterval = 250 * time.Millisecond
	}
	return c
}

// replicaHealth scores one (PG, replica) pair from delivery acks and read
// attempts: a latency EWMA plus a consecutive-failure streak, and the last
// segment completeness point the replica piggybacked on an ack or a read
// response — the database's runtime knowledge of "which segment is capable
// of satisfying a read" (§4.2.3), shared by the writer and every reader.
type replicaHealth struct {
	mu       sync.Mutex
	ewma     float64  // seconds; 0 until the first successful observation
	fails    int      // consecutive failures since the last success
	outlived int      // consecutive attempts canceled because a sibling won
	scl      core.LSN // highest SCL the replica has reported (a routing hint)
	oks      uint64
	errs     uint64
}

// pgLatency derives the hedge deadline for one protection group from the
// windowed distribution of recent successful read latencies — only the
// last one-to-two window intervals count, so a startup outlier cannot
// permanently inflate the deadline the way a lifetime quantile did. The
// quantile walk is amortized: the deadline is recomputed every
// deadlineEvery samples and cached in an atomic.
type pgLatency struct {
	win      *metrics.WindowedHistogram
	n        atomic.Uint64
	deadline atomic.Int64 // nanoseconds; 0 means "no data yet"
}

const deadlineEvery = 32

// HealthStats is a snapshot of the gray-failure counters.
type HealthStats struct {
	Retries      uint64 // write-path redeliveries after a failed flight
	Hedges       uint64 // hedged read attempts launched on deadline
	HedgeWins    uint64 // reads won by a hedge rather than the primary
	HedgeCancels uint64 // losing attempts actively canceled after a win
	AutoRepairs  uint64 // monitor-triggered repairs/catch-ups of suspects
	RespDrops    uint64 // successful page reads whose response never arrived
}

// HealthTracker maintains per-(PG, replica) health for one fleet. All
// methods are safe for concurrent use; the per-PG tables are copy-on-write
// so Grow can append protection groups without a lock on the hot paths.
type HealthTracker struct {
	cfg  HealthConfig
	reps atomic.Pointer[[][]*replicaHealth]
	lat  atomic.Pointer[[]*pgLatency]

	// idle is the free list of hedged-read state (hedge.go): a read takes one
	// and the last goroutine to touch it puts it back.
	idleMu sync.Mutex
	idle   []*hedgedRead

	retries      metrics.Counter
	hedges       metrics.Counter
	hedgeWins    metrics.Counter
	hedgeCancels metrics.Counter
	autoRepairs  metrics.Counter
	respDrops    metrics.Counter
}

func newHealthTracker(cfg HealthConfig, pgs, replicas int) *HealthTracker {
	h := &HealthTracker{cfg: cfg.withDefaults()}
	reps := make([][]*replicaHealth, pgs)
	lat := make([]*pgLatency, pgs)
	for g := range reps {
		reps[g] = newPGHealth(replicas)
		lat[g] = &pgLatency{win: metrics.NewWindowedHistogram(h.cfg.WindowInterval)}
	}
	h.reps.Store(&reps)
	h.lat.Store(&lat)
	return h
}

func newPGHealth(replicas int) []*replicaHealth {
	out := make([]*replicaHealth, replicas)
	for i := range out {
		out[i] = &replicaHealth{}
	}
	return out
}

// Grow extends the tracker to cover newPGs protection groups (no-op if it
// already does). Callers serialise growth; concurrent readers see either
// the old or the new table, both valid.
func (h *HealthTracker) Grow(newPGs, replicas int) {
	reps := *h.reps.Load()
	if newPGs <= len(reps) {
		return
	}
	nr := make([][]*replicaHealth, len(reps), newPGs)
	copy(nr, reps)
	lat := *h.lat.Load()
	nl := make([]*pgLatency, len(lat), newPGs)
	copy(nl, lat)
	for g := len(reps); g < newPGs; g++ {
		nr = append(nr, newPGHealth(replicas))
		nl = append(nl, &pgLatency{win: metrics.NewWindowedHistogram(h.cfg.WindowInterval)})
	}
	h.reps.Store(&nr)
	h.lat.Store(&nl)
}

func (h *HealthTracker) rep(pg core.PGID, idx int) *replicaHealth {
	reps := *h.reps.Load()
	return reps[int(pg)%len(reps)][idx]
}

// ObserveOK records a successful exchange with the replica and its latency.
func (h *HealthTracker) ObserveOK(pg core.PGID, idx int, d time.Duration) {
	r := h.rep(pg, idx)
	r.mu.Lock()
	s := d.Seconds()
	if r.ewma == 0 {
		r.ewma = s
	} else {
		r.ewma += ewmaAlpha * (s - r.ewma)
	}
	r.fails = 0
	r.outlived = 0
	r.oks++
	r.mu.Unlock()
}

// ObserveOutlived records an attempt canceled because a later-launched
// sibling won the race: the elapsed time is a lower bound on the replica's
// true latency, so it only ever pushes the EWMA up. Gray evidence, not a
// failure — the replica answered nothing wrong, it was just too slow to
// wait for.
func (h *HealthTracker) ObserveOutlived(pg core.PGID, idx int, d time.Duration) {
	r := h.rep(pg, idx)
	r.mu.Lock()
	s := d.Seconds()
	if s > r.ewma {
		if r.ewma == 0 {
			r.ewma = s
		} else {
			r.ewma += ewmaAlpha * (s - r.ewma)
		}
	}
	r.outlived++
	r.mu.Unlock()
}

// ObserveFailure records a failed exchange (send error, node error...).
func (h *HealthTracker) ObserveFailure(pg core.PGID, idx int) {
	r := h.rep(pg, idx)
	r.mu.Lock()
	r.fails++
	r.errs++
	r.mu.Unlock()
}

// noteSCL folds a piggybacked segment completeness point into the replica's
// record. It is a monotonic max, so late or reordered reports are harmless.
func (h *HealthTracker) noteSCL(pg core.PGID, idx int, scl core.LSN) {
	r := h.rep(pg, idx)
	r.mu.Lock()
	if scl > r.scl {
		r.scl = scl
	}
	r.mu.Unlock()
}

// Reset clears a replica's failure streak and latency memory — called after
// the segment has been repaired or migrated onto a fresh node. The SCL hint
// stays: the repaired segment was seeded from a peer at least that complete.
func (h *HealthTracker) Reset(pg core.PGID, idx int) {
	r := h.rep(pg, idx)
	r.mu.Lock()
	r.fails = 0
	r.ewma = 0
	r.mu.Unlock()
}

type repSnap struct {
	ewma     float64
	fails    int
	outlived int
	scl      core.LSN
}

// snapshot appends a consistent-per-replica copy of the PG's health records
// to buf (pass a stack array's [:0] to keep the hot read path off the heap;
// nil gets one exactly-sized allocation).
func (h *HealthTracker) snapshot(pg core.PGID, buf []repSnap) []repSnap {
	all := *h.reps.Load()
	reps := all[int(pg)%len(all)]
	if buf == nil {
		buf = make([]repSnap, 0, len(reps))
	}
	for _, r := range reps {
		r.mu.Lock()
		buf = append(buf, repSnap{ewma: r.ewma, fails: r.fails, outlived: r.outlived, scl: r.scl})
		r.mu.Unlock()
	}
	return buf
}

// stateOf classifies replica i given a consistent snapshot of its PG.
func (h *HealthTracker) stateOf(snaps []repSnap, i int) HealthState {
	s := snaps[i]
	if s.fails >= suspectFails {
		return Suspect
	}
	if s.fails >= degradedFails {
		return Degraded
	}
	// A replica repeatedly outlived by later-launched hedges is gray-slow
	// even though no exchange ever failed: its true latency is censored by
	// the cancellation, so the streak — not the EWMA — carries the signal.
	if s.outlived >= degradedFails {
		return Degraded
	}
	// Latency comparison against the fastest peer with data: a replica
	// whose EWMA is far above its PG's best is gray-slow even though every
	// exchange nominally succeeds.
	if s.ewma > degradedLatencyFloor.Seconds() {
		best := 0.0
		for j, p := range snaps {
			if j == i || p.ewma == 0 {
				continue
			}
			if best == 0 || p.ewma < best {
				best = p.ewma
			}
		}
		if best == 0 || s.ewma > degradedLatencyFactor*best {
			return Degraded
		}
	}
	return Healthy
}

// State reports the current health classification of one replica.
func (h *HealthTracker) State(pg core.PGID, idx int) HealthState {
	return h.stateOf(h.snapshot(pg, nil), idx)
}

// maxStackReplicas sizes Order's stack scratch and a pooled read's candidate
// storage; every shipped quorum has V = 6. A larger V still works, it just
// spills to the heap.
const maxStackReplicas = 8

// Order returns the read-candidate indices for a PG, best first, in one
// pass: segments known to be complete through required (from the SCL they
// last piggybacked) before segments known to be behind — those stay as last
// resorts, their SCL may have advanced via gossip since — then healthy
// before degraded before suspect, same-AZ before cross-AZ within a class,
// lowest latency EWMA within that. Log-tier replicas are excluded: they hold
// the redo stream but no materialized pages (Taurus split), so reads route
// to the page tier. Down nodes are excluded too — they are not gray, they
// are gone, and gossip (not the read path) heals them.
func (h *HealthTracker) Order(pg core.PGID, replicas []*storage.Node, myAZ netsim.AZ, required core.LSN) []int {
	return h.appendOrder(nil, pg, replicas, myAZ, required)
}

// appendOrder is Order appending to dst: the read path passes a pooled read's
// candidate storage. A nil dst gets one allocation.
func (h *HealthTracker) appendOrder(dst []int, pg core.PGID, replicas []*storage.Node, myAZ netsim.AZ, required core.LSN) []int {
	var sbuf [maxStackReplicas]repSnap
	var cbuf [maxStackReplicas]readCand
	snaps := h.snapshot(pg, sbuf[:0])
	cands := cbuf[:0]
	for i, n := range replicas {
		if n.Down() || n.Role() == core.RoleLog {
			continue
		}
		cands = append(cands, readCand{
			idx:    i,
			behind: snaps[i].scl < required,
			state:  h.stateOf(snaps, i),
			far:    n.AZ() != myAZ,
			ewma:   snaps[i].ewma,
		})
	}
	// Insertion sort: V is tiny (6) and order must be deterministic.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && candLess(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if dst == nil {
		dst = make([]int, 0, len(cands))
	}
	for _, c := range cands {
		dst = append(dst, c.idx)
	}
	return dst
}

type readCand struct {
	idx    int
	behind bool
	state  HealthState
	far    bool
	ewma   float64
}

func candLess(a, b readCand) bool {
	if a.behind != b.behind {
		return !a.behind
	}
	if a.state != b.state {
		return a.state < b.state
	}
	if a.far != b.far {
		return !a.far
	}
	if a.ewma != b.ewma {
		return a.ewma < b.ewma
	}
	return a.idx < b.idx
}

// observeReadLatency feeds the per-PG deadline estimator with one
// successful read attempt.
func (h *HealthTracker) observeReadLatency(pg core.PGID, d time.Duration) {
	lat := *h.lat.Load()
	l := lat[int(pg)%len(lat)]
	l.win.ObserveDuration(d)
	if l.n.Add(1)%deadlineEvery != 0 {
		return
	}
	dl := hedgeMultPct * l.win.QuantileDuration(0.95) / 100
	if dl < h.cfg.HedgeMin {
		dl = h.cfg.HedgeMin
	}
	if dl > hedgeMax {
		dl = hedgeMax
	}
	l.deadline.Store(int64(dl))
}

// ReadDeadline returns the per-attempt deadline for reads of a PG, derived
// from the windowed latency distribution (multiplier x p95, clamped).
func (h *HealthTracker) ReadDeadline(pg core.PGID) time.Duration {
	lat := *h.lat.Load()
	if d := lat[int(pg)%len(lat)].deadline.Load(); d > 0 {
		return time.Duration(d)
	}
	return h.cfg.HedgeMin
}

// Stats returns a snapshot of the gray-failure counters.
func (h *HealthTracker) Stats() HealthStats {
	return HealthStats{
		Retries:      h.retries.Load(),
		Hedges:       h.hedges.Load(),
		HedgeWins:    h.hedgeWins.Load(),
		HedgeCancels: h.hedgeCancels.Load(),
		AutoRepairs:  h.autoRepairs.Load(),
		RespDrops:    h.respDrops.Load(),
	}
}

// Write-path redelivery policy: a failed flight is retried with capped
// exponential backoff plus jitter before the replica is nacked. The budget
// is deliberately small — the 4/6 quorum masks a replica that stays bad,
// and gossip repairs it (§3.3) — but one retry absorbs the overwhelmingly
// common gray case of a single dropped or rejected message.
const (
	deliverAttempts    = 4 // 1 initial + 3 retries
	deliverBaseBackoff = 200 * time.Microsecond
	deliverMaxBackoff  = 2 * time.Millisecond
)

// backoffFor returns the pre-retry sleep for retry number n (0-based),
// capped at deliverMaxBackoff, with up to 50% uniform jitter so retries from
// senders that failed together do not re-collide.
func backoffFor(n int) time.Duration {
	d := deliverBaseBackoff << uint(n)
	if d > deliverMaxBackoff {
		d = deliverMaxBackoff
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}
