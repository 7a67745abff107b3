// Package metrics provides the measurement primitives of the reproduction:
// event counters and one latency histogram — a fixed log-linear array of
// atomic counters — that the benchmark harness reads the paper's P50/P95
// plots (§6.2) from and that the engine, the tracer and the hedged-read
// deadline read.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter, safe for concurrent
// use. The gray-failure tolerance layer threads its retry, hedge and
// auto-repair counts through Counters so chaos drills can assert the
// machinery actually engaged.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Bucket layout: values below 2*subBuckets have a bucket each; above, every
// octave [2^k, 2^(k+1)) is cut into subBuckets equal sub-ranges. A bucket is
// therefore at most 1/16 of its lower bound wide and its midpoint within
// 1/32 (±3.1 %) of anything filed in it. The resolution is a constant of the
// package, not an option: every consumer reads the same instrument.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets // 976: covers all of uint64
)

// bucketOf returns the bucket v is filed in.
func bucketOf(v uint64) int {
	shift := 0
	if n := bits.Len64(v); n > subBits+1 {
		shift = n - (subBits + 1)
	}
	return shift<<subBits + int(v>>shift)
}

// bucketBounds returns the smallest and largest value filed in bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < 2*subBuckets {
		return uint64(i), uint64(i)
	}
	shift := i>>subBits - 1
	lo = uint64(subBuckets+i&(subBuckets-1)) << shift
	return lo, lo + 1<<shift - 1
}

// quantile is the one bucket→value walk: the midpoint of the bucket where
// the cumulative count crosses q*n (0 < q <= 1), the top of that bucket
// pulled down to peak, the largest value seen, when peak lies inside it.
// bucket(i) returns bucket i's count; callers walk their counters in place.
func quantile(q float64, n, peak uint64, bucket func(int) uint64) uint64 {
	if n == 0 {
		return 0
	}
	target := uint64(q * float64(n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		if cum += bucket(i); cum >= target {
			lo, hi := bucketBounds(i)
			if lo <= peak && peak < hi {
				hi = peak
			}
			return lo + (hi-lo)/2
		}
	}
	return peak
}

// Histogram is a latency (or size) distribution safe on the hottest paths:
// observations are atomic adds into the log-linear bucket array — no lock, no
// allocation, no sampling — and quantiles are within ±3.1 % of the sample of
// that rank, exact below 32. The zero value is ready to use. A read racing
// Observe calls may be off by the few samples in flight.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one non-negative value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.buckets[bucketOf(u)].Add(1)
	h.count.Add(1)
	h.sum.Add(u)
	for {
		cur := h.max.Load()
		if u <= cur || h.max.CompareAndSwap(cur, u) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the q-th quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) uint64 {
	return quantile(q, h.count.Load(), h.max.Load(), func(i int) uint64 { return h.buckets[i].Load() })
}

// QuantileDuration is Quantile for duration-valued histograms.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// reset empties the histogram. Observations racing it may survive or not.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}
