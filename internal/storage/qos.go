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
// and a contended fleet converges to equal slices. Only foreground ingest is
// shaped; a zero capacity disables shaping.
type QoSConfig struct {
	// IngestBytesPerSec is the host's total foreground ingest budget,
	// fair-shared across active tenants.
	IngestBytesPerSec float64
}

const (
	// activeWindow is how long a tenant counts as active after its last
	// operation when computing fair shares.
	activeWindow = 250 * time.Millisecond
	// qosBurst is how many bytes a tenant may run ahead of its fair-share
	// rate before shaping delays it.
	qosBurst = 64 * 1024
	// qosMaxQueue caps how many operations per tenant may wait behind the
	// bucket at once; beyond it the host rejects with ErrThrottled rather
	// than queueing (per-tenant queue depth cap).
	qosMaxQueue = 32
)

// TenantStats is one tenant's activity on one host.
type TenantStats struct {
	IngestBytes  uint64        // foreground redo bytes admitted
	Throttles    uint64        // operations delayed by fair-share shaping
	Rejects      uint64        // operations refused at the queue-depth cap
	ThrottleWait time.Duration // total time operations spent shaped
}

func (s *TenantStats) add(o TenantStats) {
	s.IngestBytes += o.IngestBytes
	s.Throttles += o.Throttles
	s.Rejects += o.Rejects
	s.ThrottleWait += o.ThrottleWait
}

// tenantQoS is one tenant's shaping state on one host: a debt-based token
// bucket, where debt is how many bytes the tenant has ingested beyond what
// its accrued rate allowance covers. Admission charges the batch, drains debt
// at the tenant's current fair share, and shapes (sleeps) whenever debt
// exceeds the burst allowance.
type tenantQoS struct {
	debt       float64
	last       time.Time
	waiters    int
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

// admitLocked charges size bytes against tenant vol's bucket and returns
// how long the caller must be shaped before proceeding, or ErrThrottled
// when the tenant's queue-depth cap is hit.
func (q *qos) admitLocked(vol core.VolumeID, t *tenantQoS, size float64, now time.Time) (time.Duration, error) {
	// Fair share: the host's capacity divided by active tenants. A tenant
	// alone on the host gets everything; a contended host converges to
	// equal slices (work-conserving up to the activity window).
	rate := q.cfg.IngestBytesPerSec / float64(q.activeLocked(now, vol))
	if !t.last.IsZero() {
		t.debt -= rate * now.Sub(t.last).Seconds()
		if t.debt < 0 {
			t.debt = 0
		}
	}
	t.last = now
	if t.debt+size > qosBurst && t.waiters >= qosMaxQueue {
		t.stats.Rejects++
		return 0, ErrThrottled
	}
	t.debt += size
	t.stats.IngestBytes += uint64(size)
	if t.debt <= qosBurst {
		return 0, nil
	}
	wait := time.Duration((t.debt - qosBurst) / rate * float64(time.Second))
	t.waiters++
	t.stats.Throttles++
	t.stats.ThrottleWait += wait
	return wait, nil
}

// shape performs the ctx-aware throttle sleep computed by admitLocked. A
// canceled wait refunds the charge: the batch was never ingested.
func (q *qos) shape(ctx context.Context, t *tenantQoS, size float64, wait time.Duration) error {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		q.mu.Lock()
		t.waiters--
		q.mu.Unlock()
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		t.waiters--
		t.debt -= size
		if t.debt < 0 {
			t.debt = 0
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
	wait, err := q.admitLocked(vol, t, float64(size), now)
	q.mu.Unlock()
	if err != nil || wait <= 0 {
		return err
	}
	return q.shape(ctx, t, float64(size), wait)
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
