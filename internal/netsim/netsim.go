// Package netsim simulates the multi-AZ network that Aurora's argument
// revolves around: the paper's central claim is that the bottleneck of a
// cloud database has moved to the network between the database tier and the
// storage tier (§1). The simulator models per-hop latency (intra-AZ vs
// cross-AZ), bandwidth, jitter and heavy-tailed outliers ("the tail at
// scale" [42]), silent message loss, gray-slow nodes and AZ failures — and it
// counts every message and byte so experiments such as Table 1 can report
// network IOs per transaction.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// AZ identifies an availability zone (0..2 in the standard topology).
type AZ uint8

// NodeID names a participant in the network (database instance, storage
// node, replica, EBS server...).
type NodeID string

// Errors returned by Send.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrAZDown      = errors.New("netsim: availability zone down")
	ErrDropped     = errors.New("netsim: message silently dropped")
	// ErrAbandoned is returned when the caller's context is canceled while
	// the message is in flight: the sender stopped waiting for the reply.
	// The wrapped error includes ctx.Err(), so errors.Is also matches
	// context.Canceled / context.DeadlineExceeded.
	ErrAbandoned = errors.New("netsim: send abandoned")
)

// Config sets the latency model.
type Config struct {
	// IntraAZ is the one-way latency between two nodes in the same AZ.
	IntraAZ time.Duration
	// CrossAZ is the one-way latency between nodes in different AZs.
	CrossAZ time.Duration
	// Jitter is the fractional uniform jitter applied to every latency
	// sample (0.2 means ±20%).
	Jitter float64
	// OutlierProb is the probability that a message experiences a tail
	// event, multiplying its latency by OutlierMult. This reproduces the
	// outlier-performance arguments of §1 and §3.1.
	OutlierProb float64
	OutlierMult float64
	// Bandwidth in bytes/second per link; 0 means unlimited. Serialization
	// delay size/Bandwidth is added to each message's latency.
	Bandwidth int64
	// Seed for the deterministic RNG. 0 selects a fixed default.
	Seed int64
}

// FastLocal returns a config with zero latencies for logic-focused tests.
func FastLocal() Config { return Config{} }

// Datacenter returns the default scaled-down three-AZ latency model used by
// the benchmark harness: 100µs intra-AZ, 500µs cross-AZ, light jitter and a
// 1-in-1000 10x outlier.
func Datacenter() Config {
	return Config{
		IntraAZ:     100 * time.Microsecond,
		CrossAZ:     500 * time.Microsecond,
		Jitter:      0.2,
		OutlierProb: 0.001,
		OutlierMult: 10,
		Bandwidth:   1 << 30, // 1 GiB/s per link
	}
}

// Stats is a snapshot of traffic counters.
type Stats struct {
	Messages uint64
	Bytes    uint64
	Drops    uint64
	Rejects  uint64 // sends refused because an endpoint's AZ is down
	Abandons uint64 // sends whose caller gave up (context canceled) mid-flight
}

type node struct {
	az         AZ
	extraDelay atomic.Int64 // nanoseconds added to every message touching the node
	sent       atomic.Uint64
	sentB      atomic.Uint64
	recv       atomic.Uint64
	recvB      atomic.Uint64
}

// Network is a simulated multi-AZ network. All methods are safe for
// concurrent use.
type Network struct {
	cfg Config

	mu        sync.RWMutex
	nodes     map[NodeID]*node
	azDown    [8]bool
	linkDrops map[[2]NodeID]float64 // directional [from,to] drop probability

	dropProb atomic.Uint64 // Float64bits; the silent-loss probability of every hop

	rngMu sync.Mutex
	rng   *rand.Rand

	messages atomic.Uint64
	bytes    atomic.Uint64
	drops    atomic.Uint64
	rejects  atomic.Uint64
	abandons atomic.Uint64

	sleep func(time.Duration) // test override; nil means real timers
}

// New builds a network with the given latency model.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x44757261 // deterministic default
	}
	return &Network{
		cfg:       cfg,
		nodes:     make(map[NodeID]*node),
		linkDrops: make(map[[2]NodeID]float64),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// SetSleeper overrides the sleep function (tests use a recording sleeper).
func (n *Network) SetSleeper(f func(time.Duration)) { n.sleep = f }

// AddNode registers a node in the given AZ. Registering an existing node
// moves it (used when a segment is repaired onto a new host).
func (n *Network) AddNode(id NodeID, az AZ) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if existing, ok := n.nodes[id]; ok {
		existing.az = az
		return
	}
	n.nodes[id] = &node{az: az}
}

// RemoveNode deletes a node entirely.
func (n *Network) RemoveNode(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

// NodeAZ reports the AZ a node lives in.
func (n *Network) NodeAZ(id NodeID) (AZ, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nd, ok := n.nodes[id]
	if !ok {
		return 0, false
	}
	return nd.az, true
}

// SetAZDown fails or restores an entire availability zone — the correlated
// failure mode §2.1 designs for.
func (n *Network) SetAZDown(az AZ, down bool) {
	n.mu.Lock()
	n.azDown[az%8] = down
	n.mu.Unlock()
}

// SetNodeDelay adds a fixed latency to every message touching the node — a
// gray-slow node: alive, acking, but inflating the tail (§2.1's background
// noise without a Down signal). d <= 0 clears.
func (n *Network) SetNodeDelay(id NodeID, d time.Duration) error {
	n.mu.RLock()
	nd, ok := n.nodes[id]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if d < 0 {
		d = 0
	}
	nd.extraDelay.Store(int64(d))
	return nil
}

// SetDropProb sets the probability that a message is silently lost in
// transit (the sender observes success) — the probabilistic packet loss of a
// gray network path. Lost log batches are what the storage gossip protocol
// exists to repair (§3.3 step 4). p <= 0 clears it.
func (n *Network) SetDropProb(p float64) {
	if p < 0 {
		p = 0
	}
	n.dropProb.Store(math.Float64bits(p))
}

// SetLinkDropProb drops the given fraction of messages on one directional
// link (from -> to only), modelling an asymmetric gray path where requests
// arrive but responses vanish. p <= 0 clears the link override.
func (n *Network) SetLinkDropProb(from, to NodeID, p float64) {
	key := [2]NodeID{from, to}
	n.mu.Lock()
	if p <= 0 {
		delete(n.linkDrops, key)
	} else {
		n.linkDrops[key] = p
	}
	n.mu.Unlock()
}

// Send transports size bytes from one node to another, blocking for the
// modelled latency or until ctx is canceled, whichever comes first. It
// returns ErrDropped for silent loss (the message must not be delivered),
// ErrAZDown when either endpoint's AZ is down, and ErrAbandoned (wrapping
// ctx.Err()) when the caller's context fires mid-flight — the sender stopped
// waiting for the reply.
func (n *Network) Send(ctx context.Context, from, to NodeID, size int) error {
	return n.send(ctx, from, to, size)
}

// SendBytes transports the given payload views from one node to another
// with the same latency/loss model as Send, sized by the sum of the view
// lengths. The payloads are BORROWED: they are only guaranteed valid for
// the duration of the call, and the network never retains them — the
// simulated wire carries sizes, so zero-copy senders can pass views into a
// recyclable arena and reclaim it as soon as the delivery round-trip
// resolves. It returns the total payload size actually modelled.
func (n *Network) SendBytes(ctx context.Context, from, to NodeID, payloads [][]byte) (int, error) {
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	return size, n.send(ctx, from, to, size)
}

func (n *Network) send(ctx context.Context, from, to NodeID, size int) error {
	if err := ctx.Err(); err != nil {
		n.abandons.Add(1)
		return fmt.Errorf("%w: %w", ErrAbandoned, err)
	}
	n.mu.RLock()
	src, okSrc := n.nodes[from]
	dst, okDst := n.nodes[to]
	var linkDrop float64
	if okSrc && okDst {
		linkDrop = n.linkDrops[[2]NodeID{from, to}]
	}
	var srcAZDown, dstAZDown bool
	if okSrc {
		srcAZDown = n.azDown[src.az%8]
	}
	if okDst {
		dstAZDown = n.azDown[dst.az%8]
	}
	n.mu.RUnlock()

	if !okSrc {
		return fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	if !okDst {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if srcAZDown || dstAZDown {
		n.rejects.Add(1)
		return ErrAZDown
	}

	dropP := math.Float64frombits(n.dropProb.Load())
	if linkDrop > dropP {
		dropP = linkDrop
	}
	lat, dropped := n.sample(src, dst, size, dropP)
	if lat > 0 {
		if n.sleep != nil {
			// Test-provided sleeper: run it, then honor a context that
			// fired while it slept.
			n.sleep(lat)
			if err := ctx.Err(); err != nil {
				n.abandons.Add(1)
				return fmt.Errorf("%w: %w", ErrAbandoned, err)
			}
		} else if err := wait(ctx, lat); err != nil {
			n.abandons.Add(1)
			return fmt.Errorf("%w: %w", ErrAbandoned, err)
		}
	}
	n.messages.Add(1)
	n.bytes.Add(uint64(size))
	src.sent.Add(1)
	src.sentB.Add(uint64(size))
	if dropped {
		n.drops.Add(1)
		return ErrDropped
	}
	dst.recv.Add(1)
	dst.recvB.Add(uint64(size))
	return nil
}

// timers holds the idle timers hops wait on, so a hop allocates nothing.
// Every Send shares it: senders, gossip, reads and acks all wait here, and
// no one goroutine owns their waits.
var timers sync.Pool

// wait blocks for d or until ctx is done, returning ctx.Err() in the second
// case. It is the one real-clock wait: a context that cannot be canceled
// has a nil Done channel, which never fires.
func wait(ctx context.Context, d time.Duration) error {
	t, _ := timers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	select {
	case <-t.C:
		// Drained: its value was received, so its channel is empty.
		timers.Put(t)
		return nil
	case <-ctx.Done():
		// Only a timer that Stop caught before it fired goes back. One whose
		// Stop returns false may hold an undelivered value (timer channels
		// are buffered under the module's go 1.22 line), which would end a
		// later hop at once with no latency; it is dropped, not drained,
		// because from go 1.23 on a receive after such a Stop blocks forever.
		if t.Stop() {
			timers.Put(t)
		}
		return ctx.Err()
	}
}

// sample computes latency and loss for one message.
func (n *Network) sample(src, dst *node, size int, dropP float64) (time.Duration, bool) {
	base := n.cfg.CrossAZ
	if src.az == dst.az {
		base = n.cfg.IntraAZ
	}
	if n.cfg.Bandwidth > 0 && size > 0 {
		base += time.Duration(int64(size) * int64(time.Second) / n.cfg.Bandwidth)
	}
	var dropped bool
	if n.cfg.Jitter > 0 || n.cfg.OutlierProb > 0 || dropP > 0 {
		n.rngMu.Lock()
		if n.cfg.Jitter > 0 {
			j := 1 + n.cfg.Jitter*(2*n.rng.Float64()-1)
			base = time.Duration(float64(base) * j)
		}
		if n.cfg.OutlierProb > 0 && n.rng.Float64() < n.cfg.OutlierProb {
			base = time.Duration(float64(base) * n.cfg.OutlierMult)
		}
		if dropP > 0 && n.rng.Float64() < dropP {
			dropped = true
		}
		n.rngMu.Unlock()
	}
	for _, nd := range [2]*node{src, dst} {
		if d := nd.extraDelay.Load(); d > 0 {
			base += time.Duration(d)
		}
	}
	return base, dropped
}

// Stats returns global traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Messages: n.messages.Load(),
		Bytes:    n.bytes.Load(),
		Drops:    n.drops.Load(),
		Rejects:  n.rejects.Load(),
		Abandons: n.abandons.Load(),
	}
}

// NodeStats returns per-node counters: messages/bytes sent and received.
func (n *Network) NodeStats(id NodeID) (sent, sentBytes, recv, recvBytes uint64, ok bool) {
	n.mu.RLock()
	nd, found := n.nodes[id]
	n.mu.RUnlock()
	if !found {
		return 0, 0, 0, 0, false
	}
	return nd.sent.Load(), nd.sentB.Load(), nd.recv.Load(), nd.recvB.Load(), true
}

// ResetStats zeroes all counters (per-node and global).
func (n *Network) ResetStats() {
	n.messages.Store(0)
	n.bytes.Store(0)
	n.drops.Store(0)
	n.rejects.Store(0)
	n.abandons.Store(0)
	n.mu.RLock()
	for _, nd := range n.nodes {
		nd.sent.Store(0)
		nd.sentB.Store(0)
		nd.recv.Store(0)
		nd.recvB.Store(0)
	}
	n.mu.RUnlock()
}
