// Package trace is the engine's causal tracing subsystem: per-commit (and
// per-read) critical-path spans from the SQL-side latch all the way to the
// storage node's fsync, with stage-level latency attribution. The paper's
// argument is about *where time goes* — Figure 2's write amplification,
// Table 1's network IOs per transaction, the commit path's sensitivity to
// the bottom 0.01% of storage outliers — and every one of those claims is a
// latency-attribution claim. This package gives the repo the measurement
// substrate to make them about itself.
//
// Model: a Trace is a tree of Spans. A Span has a name, nanosecond begin
// and end offsets from the trace epoch, key/value annotations, and
// children. Spans may be created and ended from any goroutine (the commit
// path hops from the committer to the framer to per-replica sender
// pipelines to completion watchers); all mutation is serialized on the
// owning trace's mutex, which only sampled requests ever touch.
//
// Sampling: a Collector samples 1 in N requests through an atomic gate.
// When sampling is off (N = 0) the only cost on the hot path is a single
// atomic load and nil-span method calls, with zero allocations — tracing is
// compiled in, never compiled out, and still near-free (see
// BenchmarkStartUnsampled and TestUnsampledPathDoesNotAllocate).
// Every Span method, and Annotate, is safe on a nil span, so instrumented
// code never branches on "am I sampled".
//
// Completed traces land in a bounded lock-free ring (newest overwrite
// oldest) and feed a per-stage aggregator: one lock-free histogram per span
// name plus the slowest exemplar traces per root kind, from which reports
// render attribution tables and critical-path trees.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/metrics"
)

// maxSpansPerTrace bounds one trace's memory; Child returns nil once a
// trace is full (annotations on the existing spans still work).
const maxSpansPerTrace = 512

// exemplarsPerRoot is how many slowest traces are retained per root name.
const exemplarsPerRoot = 4

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// Span is one timed stage of a trace. The zero of *Span is nil, and every
// method is a no-op on nil — unsampled paths carry nil spans for free.
type Span struct {
	tr       *Trace
	parent   *Span
	name     string
	start    time.Duration // offset from the trace epoch
	end      time.Duration // 0 until ended
	attrs    []Attr
	children []*Span
}

// Trace is one sampled request: a tree of spans under a root.
type Trace struct {
	id    uint64
	col   *Collector
	epoch time.Time

	mu    sync.Mutex
	root  *Span
	spans int
	done  bool
}

// ID returns the trace's id (unique per collector).
func (t *Trace) ID() uint64 { return t.id }

// Child opens a sub-span under s, started now. It returns nil when s is
// nil, the trace has already finished (a straggler — e.g. the 6th replica's
// flight landing after the 4/6 quorum resolved and the commit completed),
// or the trace is at its span cap.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.spans >= maxSpansPerTrace {
		return nil
	}
	c := &Span{tr: t, parent: s, name: name, start: time.Since(t.epoch)}
	s.children = append(s.children, c)
	t.spans++
	return c
}

// Annotate attaches a key/value pair to the span. It is a generic function,
// not a method taking `any`, so that the value is boxed for formatting only
// after the nil check: on an unsampled path an annotation of a string, an
// integer wider than a byte or an error costs a compare, not an allocation.
func Annotate[T any](s *Span, key string, val T) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: fmt.Sprint(val)})
	t.mu.Unlock()
}

// Age returns how long the span has been open (0 for a nil span).
func (s *Span) Age() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.tr.epoch) - s.start
}

// TraceID returns the owning trace's id (0 for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.tr.id
}

// End closes the span at now. Ending the root finishes the trace: it is
// aggregated and published to the collector's ring exactly once. A span
// ended after its trace finished (a late replica flight) is still folded
// into the stage aggregation, so tail replicas are not invisible.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if s.end != 0 {
		t.mu.Unlock()
		return
	}
	s.end = time.Since(t.epoch)
	late := t.done && s.parent != nil
	dur := s.end - s.start
	name := s.name
	finish := s.parent == nil && !t.done
	if finish {
		t.done = true
	}
	t.mu.Unlock()
	if finish {
		t.col.finish(t)
	} else if late {
		t.col.observeStage(name, dur)
	}
}

// SpanInfo is an immutable snapshot of one span, safe to walk and render
// while the live trace may still be receiving late span ends.
type SpanInfo struct {
	Name     string
	Start    time.Duration // offset from the trace epoch
	End      time.Duration // 0 if the span never ended
	Attrs    []Attr
	Children []*SpanInfo
}

// Duration returns the span's length (0 if it never ended).
func (si *SpanInfo) Duration() time.Duration {
	if si.End == 0 {
		return 0
	}
	return si.End - si.Start
}

// Attr returns the value of the named annotation ("" if absent).
func (si *SpanInfo) Attr(key string) string {
	for _, a := range si.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Find returns the first span named name in a depth-first walk (itself
// included), or nil.
func (si *SpanInfo) Find(name string) *SpanInfo {
	if si.Name == name {
		return si
	}
	for _, c := range si.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Walk visits every span in the tree depth-first.
func (si *SpanInfo) Walk(fn func(*SpanInfo)) {
	fn(si)
	for _, c := range si.Children {
		c.Walk(fn)
	}
}

// Snapshot returns an immutable copy of the trace's span tree.
func (t *Trace) Snapshot() *SpanInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return snapSpan(t.root)
}

func snapSpan(s *Span) *SpanInfo {
	si := &SpanInfo{
		Name:  s.name,
		Start: s.start,
		End:   s.end,
		Attrs: append([]Attr(nil), s.attrs...),
	}
	for _, c := range s.children {
		si.Children = append(si.Children, snapSpan(c))
	}
	return si
}

// Duration returns the root span's length (the traced request's end-to-end
// latency), 0 while unfinished.
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root.end == 0 {
		return 0
	}
	return t.root.end - t.root.start
}

// RootName returns the root span's name ("commit", "read.page", ...).
func (t *Trace) RootName() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.name
}

// Stats is a snapshot of a collector's accounting.
type Stats struct {
	SampleEvery uint64 // 0 = sampling off
	Started     uint64 // traces sampled
	Finished    uint64 // traces whose root ended
}

// StageStat is the latency attribution of one stage (span name) across all
// finished traces.
type StageStat struct {
	Name  string
	Count uint64
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Collector owns the sampling gate, the ring of completed traces, and the
// stage aggregation. All methods are safe for concurrent use.
type Collector struct {
	every atomic.Uint64 // sample 1 in N; 0 = off
	seq   atomic.Uint64
	ids   atomic.Uint64

	started  atomic.Uint64
	finished atomic.Uint64

	ring     []atomic.Pointer[Trace]
	ringHead atomic.Uint64

	stageMu sync.RWMutex
	stages  map[string]*metrics.Histogram

	exMu      sync.Mutex
	exemplars map[string][]*Trace // per root name, slowest first
}

// NewCollector returns a collector with a completed-trace ring of the given
// capacity (<= 0 selects 256).
func NewCollector(ringCap int) *Collector {
	if ringCap <= 0 {
		ringCap = 256
	}
	return &Collector{
		ring:      make([]atomic.Pointer[Trace], ringCap),
		stages:    make(map[string]*metrics.Histogram),
		exemplars: make(map[string][]*Trace),
	}
}

// SetSampleEvery sets the sampling gate: sample 1 in n requests; 0 turns
// sampling off. Takes effect immediately.
func (c *Collector) SetSampleEvery(n uint64) { c.every.Store(n) }

// SampleEvery returns the current gate.
func (c *Collector) SampleEvery() uint64 { return c.every.Load() }

// Start begins a trace rooted at a span with the given name if this request
// wins the sampling lottery, and returns nil otherwise. With sampling off
// the cost is one atomic load and no allocation.
func (c *Collector) Start(name string) *Span {
	n := c.every.Load()
	if n == 0 {
		return nil
	}
	if c.seq.Add(1)%n != 0 {
		return nil
	}
	t := &Trace{id: c.ids.Add(1), col: c, epoch: time.Now()}
	t.root = &Span{tr: t, name: name}
	t.spans = 1
	c.started.Add(1)
	return t.root
}

// finish aggregates and publishes one completed trace.
func (c *Collector) finish(t *Trace) {
	c.finished.Add(1)
	root := t.Snapshot()
	root.Walk(func(si *SpanInfo) {
		if si.End > 0 {
			c.observeStage(si.Name, si.Duration())
		}
	})
	idx := c.ringHead.Add(1) - 1
	c.ring[idx%uint64(len(c.ring))].Store(t)
	c.noteExemplar(root.Name, root.Duration(), t)
}

func (c *Collector) observeStage(name string, d time.Duration) {
	c.stageMu.RLock()
	h := c.stages[name]
	c.stageMu.RUnlock()
	if h == nil {
		c.stageMu.Lock()
		if h = c.stages[name]; h == nil {
			h = &metrics.Histogram{}
			c.stages[name] = h
		}
		c.stageMu.Unlock()
	}
	h.ObserveDuration(d)
}

// noteExemplar keeps the slowest few traces per root name.
func (c *Collector) noteExemplar(root string, d time.Duration, t *Trace) {
	c.exMu.Lock()
	defer c.exMu.Unlock()
	ex := c.exemplars[root]
	i := sort.Search(len(ex), func(j int) bool { return ex[j].Duration() < d })
	if i >= exemplarsPerRoot {
		return
	}
	ex = append(ex, nil)
	copy(ex[i+1:], ex[i:])
	ex[i] = t
	if len(ex) > exemplarsPerRoot {
		ex = ex[:exemplarsPerRoot]
	}
	c.exemplars[root] = ex
}

// Stats returns the collector's accounting snapshot.
func (c *Collector) Stats() Stats {
	return Stats{
		SampleEvery: c.every.Load(),
		Started:     c.started.Load(),
		Finished:    c.finished.Load(),
	}
}

// Traces returns the completed traces currently in the ring, newest last.
func (c *Collector) Traces() []*Trace {
	head := c.ringHead.Load()
	n := uint64(len(c.ring))
	var out []*Trace
	start := uint64(0)
	if head > n {
		start = head - n
	}
	for i := start; i < head; i++ {
		if t := c.ring[i%n].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Exemplars returns the slowest retained traces for the given root name
// ("commit", "read.page"), slowest first.
func (c *Collector) Exemplars(root string) []*Trace {
	c.exMu.Lock()
	defer c.exMu.Unlock()
	return append([]*Trace(nil), c.exemplars[root]...)
}

// Stages returns per-stage latency attribution across all finished traces
// (including late-ended spans), sorted by total time descending.
func (c *Collector) Stages() []StageStat {
	c.stageMu.RLock()
	defer c.stageMu.RUnlock()
	out := make([]StageStat, 0, len(c.stages))
	for name, h := range c.stages {
		n := h.Count()
		if n == 0 {
			continue
		}
		st := StageStat{
			Name:  name,
			Count: n,
			Total: time.Duration(h.Sum()),
			Mean:  time.Duration(h.Mean()),
			P50:   h.QuantileDuration(0.50),
			P95:   h.QuantileDuration(0.95),
			P99:   h.QuantileDuration(0.99),
			Max:   time.Duration(h.Max()),
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}
