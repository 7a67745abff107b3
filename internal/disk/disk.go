// Package disk simulates the locally attached SSDs of storage nodes and
// database hosts. Each operation is one simulated wait (a durable append is
// one write with force unit access, not a write and an fsync) and is counted,
// so experiments can report disk traffic alongside network traffic; it
// supports fault injection (failed device, slow device) for §2.3's scenarios.
package disk

import (
	"errors"
	"sync/atomic"
	"time"
)

// Errors returned by IO methods.
var ErrFailed = errors.New("disk: device failed")

// Config models device speed.
type Config struct {
	WriteLatency time.Duration
	ReadLatency  time.Duration
	SyncLatency  time.Duration // the flush a durable append (WriteSync) adds
	// Bandwidth in bytes/second; 0 = unlimited.
	Bandwidth int64
}

// FastLocal returns a zero-latency device for logic tests.
func FastLocal() Config { return Config{} }

// NVMe returns the scaled-down default SSD model used by the harness.
func NVMe() Config {
	return Config{
		WriteLatency: 80 * time.Microsecond,
		ReadLatency:  60 * time.Microsecond,
		SyncLatency:  50 * time.Microsecond,
		Bandwidth:    2 << 30,
	}
}

// Stats is a snapshot of device counters.
type Stats struct {
	Writes       uint64
	Reads        uint64
	Syncs        uint64
	BytesWritten uint64
	BytesRead    uint64
}

// SSD is a simulated device. All methods are safe for concurrent use.
type SSD struct {
	cfg      Config
	failed   atomic.Bool
	slowMult atomic.Int64 // x1000 fixed point, 0 = 1.0

	writes atomic.Uint64
	reads  atomic.Uint64
	syncs  atomic.Uint64
	wBytes atomic.Uint64
	rBytes atomic.Uint64

	sleep func(time.Duration)
}

// New returns a device with the given speed model.
func New(cfg Config) *SSD { return &SSD{cfg: cfg, sleep: time.Sleep} }

// SetSleeper overrides the sleep function for tests.
func (d *SSD) SetSleeper(f func(time.Duration)) { d.sleep = f }

// Fail marks the device failed or repaired. Failed devices return ErrFailed
// on every operation — the "permanent failure of a disk" from §2.1.
func (d *SSD) Fail(failed bool) { d.failed.Store(failed) }

// Failed reports the failure state.
func (d *SSD) Failed() bool { return d.failed.Load() }

// SetSlow applies a latency multiplier — a hot disk (§2.3). mult <= 1 clears.
func (d *SSD) SetSlow(mult float64) {
	if mult <= 1 {
		d.slowMult.Store(0)
	} else {
		d.slowMult.Store(int64(mult * 1000))
	}
}

func (d *SSD) delay(base time.Duration, size int) {
	if d.cfg.Bandwidth > 0 && size > 0 {
		base += time.Duration(int64(size) * int64(time.Second) / d.cfg.Bandwidth)
	}
	if m := d.slowMult.Load(); m > 0 {
		base = time.Duration(int64(base) * m / 1000)
	}
	if base > 0 {
		d.sleep(base)
	}
}

// Write models writing size bytes.
func (d *SSD) Write(size int) error {
	if d.failed.Load() {
		return ErrFailed
	}
	d.delay(d.cfg.WriteLatency, size)
	d.writes.Add(1)
	d.wBytes.Add(uint64(size))
	return nil
}

// Read models reading size bytes.
func (d *SSD) Read(size int) error {
	if d.failed.Load() {
		return ErrFailed
	}
	d.delay(d.cfg.ReadLatency, size)
	d.reads.Add(1)
	d.rBytes.Add(uint64(size))
	return nil
}

// WriteSync models a durable append of size bytes (a write with force unit
// access): one wait of WriteLatency + SyncLatency + size/Bandwidth, counted
// as one write and one sync.
func (d *SSD) WriteSync(size int) error {
	if d.failed.Load() {
		return ErrFailed
	}
	d.delay(d.cfg.WriteLatency+d.cfg.SyncLatency, size)
	d.writes.Add(1)
	d.syncs.Add(1)
	d.wBytes.Add(uint64(size))
	return nil
}

// Stats returns a snapshot of counters.
func (d *SSD) Stats() Stats {
	return Stats{
		Writes:       d.writes.Load(),
		Reads:        d.reads.Load(),
		Syncs:        d.syncs.Load(),
		BytesWritten: d.wBytes.Load(),
		BytesRead:    d.rBytes.Load(),
	}
}

// ResetStats zeroes the counters.
func (d *SSD) ResetStats() {
	d.writes.Store(0)
	d.reads.Store(0)
	d.syncs.Store(0)
	d.wBytes.Store(0)
	d.rBytes.Store(0)
}
