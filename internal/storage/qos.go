package storage

import (
	"context"
	"errors"
	"sync"
	"time"

	"aurora/internal/core"
)

// ErrThrottled is returned when a tenant's per-host queue is already full of
// throttled work: admitting more would let a hot tenant build an unbounded
// backlog on the host and starve everyone behind it. The writer's sender
// treats it like any other delivery failure — retry with backoff — so the
// tenant's offered load is shed back onto its own pipeline, not the host's.
var ErrThrottled = errors.New("storage: tenant throttled, queue full")

// QoSConfig shapes how one storage host divides its capacity between the
// tenant volumes it serves. Capacities are per host and shared: each tenant's
// instantaneous rate limit is capacity divided by the number of currently
// active tenants (fair share), so an idle fleet gives one tenant everything
// and a contended fleet converges to equal slices. Zero capacities disable
// shaping on that path.
type QoSConfig struct {
	// IngestBytesPerSec is the host's total foreground ingest budget,
	// fair-shared across active tenants.
	IngestBytesPerSec float64
	// ReadsPerSec is the host's total foreground page-read budget,
	// fair-shared across active tenants.
	ReadsPerSec float64
	// Burst is how far a tenant may run ahead of its fair-share rate before
	// shaping delays it (bytes for ingest, ops for reads — the same knob
	// covers both, scaled by the mean op size). Zero selects a default.
	Burst float64
	// MaxQueue caps how many operations per tenant may wait behind the
	// bucket at once; beyond it the host rejects with ErrThrottled rather
	// than queueing (per-tenant queue depth cap). Zero selects a default.
	MaxQueue int
}

// activeWindow is how long a tenant counts as active after its last operation
// when computing fair shares.
const activeWindow = 250 * time.Millisecond

func (c *QoSConfig) fillDefaults() {
	if c.Burst <= 0 {
		c.Burst = 64 * 1024
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32
	}
}

// TenantStats is one tenant's activity on one host.
type TenantStats struct {
	IngestBytes  uint64        // foreground redo bytes admitted
	Reads        uint64        // foreground page reads admitted
	Throttles    uint64        // operations delayed by fair-share shaping
	Rejects      uint64        // operations refused at the queue-depth cap
	ThrottleWait time.Duration // total time operations spent shaped
}

func (s *TenantStats) add(o TenantStats) {
	s.IngestBytes += o.IngestBytes
	s.Reads += o.Reads
	s.Throttles += o.Throttles
	s.Rejects += o.Rejects
	s.ThrottleWait += o.ThrottleWait
}

// bucket is one tenant's debt-based token bucket on one path: debt is how
// many units the tenant has consumed beyond what its accrued rate allowance
// covers. Admission charges the op, drains debt at the tenant's current fair
// share, and shapes (sleeps) whenever debt exceeds the burst allowance.
type bucket struct {
	debt    float64
	last    time.Time
	waiters int
}

// tenantQoS is one tenant's shaping state on one host.
type tenantQoS struct {
	ingest     bucket
	read       bucket
	lastActive time.Time
	stats      TenantStats
}

// qos is the per-host fair-share scheduler. All state is under one mutex;
// the critical sections are O(tenants-on-host) at worst (counting active
// tenants) and allocation-free in steady state.
type qos struct {
	cfg QoSConfig

	mu      sync.Mutex
	tenants map[core.VolumeID]*tenantQoS
}

func newQoS(cfg QoSConfig) *qos {
	cfg.fillDefaults()
	return &qos{cfg: cfg, tenants: make(map[core.VolumeID]*tenantQoS)}
}

// activeLocked counts tenants active within the window (the caller's own
// tenant is always counted — it is acting right now).
func (q *qos) activeLocked(now time.Time, self core.VolumeID) int {
	n := 0
	for vol, t := range q.tenants {
		if vol == self || now.Sub(t.lastActive) <= activeWindow {
			n++
		}
	}
	return n
}

func (q *qos) tenantLocked(vol core.VolumeID) *tenantQoS {
	t := q.tenants[vol]
	if t == nil {
		t = &tenantQoS{}
		q.tenants[vol] = t
	}
	return t
}

// admit charges units against one tenant's bucket and returns how long the
// caller must be shaped before proceeding, or ErrThrottled when the tenant's
// queue-depth cap is hit. release must be called after the shaping wait (or
// immediately on a zero wait).
func (q *qos) admit(vol core.VolumeID, b *bucket, t *tenantQoS, capacity, units float64, now time.Time) (time.Duration, error) {
	// Fair share: the host's capacity divided by active tenants. A tenant
	// alone on the host gets everything; a contended host converges to
	// equal slices (work-conserving up to the activity window).
	rate := capacity / float64(q.activeLocked(now, vol))
	if !b.last.IsZero() {
		b.debt -= rate * now.Sub(b.last).Seconds()
		if b.debt < 0 {
			b.debt = 0
		}
	}
	b.last = now
	if b.debt+units > q.cfg.Burst && b.waiters >= q.cfg.MaxQueue {
		t.stats.Rejects++
		return 0, ErrThrottled
	}
	b.debt += units
	if b.debt <= q.cfg.Burst {
		return 0, nil
	}
	wait := time.Duration((b.debt - q.cfg.Burst) / rate * float64(time.Second))
	b.waiters++
	t.stats.Throttles++
	t.stats.ThrottleWait += wait
	return wait, nil
}

// shape performs the ctx-aware throttle sleep computed by admit. A canceled
// wait refunds the charge: the operation never ran.
func (q *qos) shape(ctx context.Context, b *bucket, units float64, wait time.Duration) error {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		q.mu.Lock()
		b.waiters--
		q.mu.Unlock()
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		b.waiters--
		b.debt -= units
		if b.debt < 0 {
			b.debt = 0
		}
		q.mu.Unlock()
		return ctx.Err()
	}
}

// AdmitIngest admits size bytes of foreground redo from tenant vol,
// delaying the caller to the tenant's fair share of the host's ingest
// capacity. Hot tenants beyond their queue cap get ErrThrottled.
func (q *qos) AdmitIngest(ctx context.Context, vol core.VolumeID, size int) error {
	if q.cfg.IngestBytesPerSec <= 0 {
		return nil
	}
	now := time.Now()
	q.mu.Lock()
	t := q.tenantLocked(vol)
	t.lastActive = now
	wait, err := q.admit(vol, &t.ingest, t, q.cfg.IngestBytesPerSec, float64(size), now)
	if err == nil {
		t.stats.IngestBytes += uint64(size)
	}
	b := &t.ingest
	q.mu.Unlock()
	if err != nil {
		return err
	}
	if wait <= 0 {
		return nil
	}
	return q.shape(ctx, b, float64(size), wait)
}

// AdmitRead admits one foreground page read from tenant vol against the
// host's read capacity, fair-shared like ingest.
func (q *qos) AdmitRead(ctx context.Context, vol core.VolumeID) error {
	if q.cfg.ReadsPerSec <= 0 {
		return nil
	}
	// Reads are counted in ops; scale one op to the burst's byte units so
	// the same Burst knob covers both paths (burst/readUnit ops of slack).
	const readUnit = 4096
	now := time.Now()
	q.mu.Lock()
	t := q.tenantLocked(vol)
	t.lastActive = now
	wait, err := q.admit(vol, &t.read, t, q.cfg.ReadsPerSec*readUnit, readUnit, now)
	if err == nil {
		t.stats.Reads++
	}
	b := &t.read
	q.mu.Unlock()
	if err != nil {
		return err
	}
	if wait <= 0 {
		return nil
	}
	return q.shape(ctx, b, readUnit, wait)
}

// Stats snapshots every tenant's counters on this scheduler.
func (q *qos) Stats() map[core.VolumeID]TenantStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[core.VolumeID]TenantStats, len(q.tenants))
	for vol, t := range q.tenants {
		out[vol] = t.stats
	}
	return out
}
