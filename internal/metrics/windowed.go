package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// WindowedHistogram is two Histograms and a rotation: it remembers only the
// most recent ~two window intervals, rotating lazily on observation — the
// current bank fills, the previous bank ages out, anything older is gone.
// Quantile walks both banks in place, so estimates always reflect between
// one and two intervals of recent traffic and a startup outlier stops
// influencing them one rotation later. This is the fix for hedged-read
// deadlines computed from lifetime P95. Observe is the bank's own (atomic
// adds); only the rotation itself takes a mutex, at most once per interval
// per caller.
type WindowedHistogram struct {
	interval time.Duration
	now      func() time.Time // injectable for deterministic tests

	active   atomic.Uint32 // index of the current bank
	curStart atomic.Int64  // unix nanos of the current window's start
	rotateMu sync.Mutex
	banks    [2]Histogram
}

// NewWindowedHistogram returns a histogram whose memory spans roughly
// interval..2×interval of recent observations (<=0 selects one second).
func NewWindowedHistogram(interval time.Duration) *WindowedHistogram {
	if interval <= 0 {
		interval = time.Second
	}
	w := &WindowedHistogram{interval: interval, now: time.Now}
	w.curStart.Store(w.now().UnixNano())
	return w
}

// maybeRotate advances the window banks if the current interval has
// elapsed. A rotation clears the stale bank and makes it current; an idle
// gap of two or more intervals clears both banks.
func (w *WindowedHistogram) maybeRotate() {
	nowNS := w.now().UnixNano()
	start := w.curStart.Load()
	if nowNS-start < int64(w.interval) {
		return
	}
	w.rotateMu.Lock()
	defer w.rotateMu.Unlock()
	start = w.curStart.Load()
	elapsed := nowNS - start
	if elapsed < int64(w.interval) {
		return // someone else rotated while we waited
	}
	cur := w.active.Load()
	if elapsed >= 2*int64(w.interval) {
		// Idle gap: everything on hand is older than two windows.
		w.banks[cur].reset()
	}
	next := 1 - cur
	w.banks[next].reset()
	w.active.Store(next)
	w.curStart.Store(nowNS)
}

// Observe records one non-negative value into the current window
// (negative values clamp to zero). An observation racing a rotation may
// land in the just-retired bank, where it still counts as recent data.
func (w *WindowedHistogram) Observe(v int64) {
	w.maybeRotate()
	w.banks[w.active.Load()].Observe(v)
}

// ObserveDuration records a duration in nanoseconds.
func (w *WindowedHistogram) ObserveDuration(d time.Duration) { w.Observe(int64(d)) }

// Count returns the number of observations within the current memory
// span (current + previous window).
func (w *WindowedHistogram) Count() uint64 {
	w.maybeRotate()
	return w.banks[0].Count() + w.banks[1].Count()
}

// Quantile estimates the q-th quantile (0 < q <= 1) over the current and
// previous windows together, without copying either.
func (w *WindowedHistogram) Quantile(q float64) uint64 {
	w.maybeRotate()
	a, b := &w.banks[0], &w.banks[1]
	return quantile(q, a.Count()+b.Count(), max(a.Max(), b.Max()), func(i int) uint64 {
		return a.buckets[i].Load() + b.buckets[i].Load()
	})
}

// QuantileDuration is Quantile for duration-valued histograms.
func (w *WindowedHistogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(w.Quantile(q))
}
