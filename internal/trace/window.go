package trace

import (
	"time"

	"aurora/internal/metrics"
)

// StageDelta is the distribution one stage accumulated during one window:
// delta quantiles between two snapshots of the stage's histogram, so the
// adaptive control plane reacts to where time goes *now*, not to lifetime
// aggregates that never forget cold-start outliers.
type StageDelta struct {
	Name  string
	Count uint64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// StageWindow tracks per-stage histogram snapshots across successive
// Advance calls. It is owned by a single consumer (the controller's
// gather closure); the underlying stage histograms stay lock-free and
// shared with the live tracers.
type StageWindow struct {
	col  *Collector
	prev map[string]*metrics.HistSnapshot
}

// NewStageWindow returns a window anchored at the collector's current
// stage state: the first Advance reports only observations made after
// this call.
func (c *Collector) NewStageWindow() *StageWindow {
	w := &StageWindow{col: c, prev: make(map[string]*metrics.HistSnapshot)}
	w.Advance()
	return w
}

// Advance closes the current window and returns each stage's delta
// distribution since the previous Advance (or since NewStageWindow).
// Stages with no observations in the window are omitted, and cost no
// snapshot. Not safe for concurrent use by multiple goroutines; one window
// has one consumer.
func (w *StageWindow) Advance() map[string]StageDelta {
	out := make(map[string]StageDelta)
	w.col.stageMu.RLock()
	defer w.col.stageMu.RUnlock()
	for name, h := range w.col.stages {
		prev := w.prev[name]
		if prev != nil && h.Count() == prev.N {
			continue
		}
		cur := h.Snapshot()
		w.prev[name] = cur
		d := cur.Delta(prev)
		if d.N == 0 {
			continue
		}
		out[name] = StageDelta{
			Name:  name,
			Count: d.N,
			P50:   d.QuantileDuration(0.50),
			P95:   d.QuantileDuration(0.95),
			P99:   d.QuantileDuration(0.99),
		}
	}
	return out
}
