package volume

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aurora/internal/core"
	"aurora/internal/netsim"
	"aurora/internal/page"
)

// ErrReaderClosed is returned by reads on a closed Reader.
var ErrReaderClosed = errors.New("volume: reader closed")

// Reader is a read-only attachment to a writer's volume, used by read
// replicas. A replica learns the per-PG durable tails from the writer's log
// stream, so it passes the completeness requirement explicitly. The reader
// holds one pin in the writer's read-point registry: the oldest view it may
// still serve, which the writer's MRPL respects, so storage GC never collects
// a version the replica could request (§4.2.3). The pin belongs to that
// writer and ends with it.
type Reader struct {
	fleet *Fleet
	reads *readRegistry
	pin   readToken
	node  netsim.NodeID

	// ctx bounds the reader's lifetime: Close cancels it, which unwinds
	// every in-flight hedged attempt before the node leaves the network.
	ctx    context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool

	pageReads readCounters // bumped by the shared read path (read.go)
}

// NewReader registers a read-only consumer of c's volume on the network and
// pins c's current VDL in c's read-point registry. It returns the reader with
// that VDL: the view the reader starts from.
func NewReader(c *Client, node netsim.NodeID, az netsim.AZ) (*Reader, core.LSN) {
	c.fleet.cfg.Net.AddNode(node, az)
	ctx, cancel := context.WithCancel(context.Background())
	start, pin := c.reads.register()
	return &Reader{fleet: c.fleet, reads: c.reads, pin: pin, node: node, ctx: ctx, cancel: cancel}, start
}

// AdvancePin moves the reader's pin up to lsn as its applied view moves
// forward. Pins never move down; after Close this does nothing.
func (r *Reader) AdvancePin(lsn core.LSN) { r.reads.advance(r.pin, lsn) }

// ReadPageAt reads the version of a page as of readPoint into a new page (see
// ReadPageInto).
func (r *Reader) ReadPageAt(ctx context.Context, id core.PageID, readPoint, required core.LSN) (page.Page, error) {
	p := make(page.Page, page.Size)
	if err := r.ReadPageInto(ctx, id, readPoint, required, p); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadPageInto reads the version of a page as of readPoint into dst, a
// page-sized buffer (a buffer-cache frame on a miss), from a single segment
// whose SCL covers required — the completeness the replica learned from the
// writer's log stream for the page's PG. Everything else (routing at the read
// point, the split relaxation, health-ordered hedged attempts, stale-geometry
// re-routes) is the shared read path, Fleet.readPage, which joins the caller's
// ctx with the reader's lifetime: either one ending unwinds the hedged
// attempts. A sampled span carried in ctx gets each hedged attempt as a child.
func (r *Reader) ReadPageInto(ctx context.Context, id core.PageID, readPoint, required core.LSN, dst page.Page) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrReaderClosed
	}
	r.wg.Add(1)
	r.mu.Unlock()
	defer r.wg.Done()
	err := r.fleet.readPage(ctx, r.ctx, r.node, id, readPoint, func(core.PGID) core.LSN { return required }, &r.pageReads, dst)
	if err != nil {
		return fmt.Errorf("reader %s: %w", r.node, err)
	}
	return nil
}

// Close detaches the reader: new reads are refused, in-flight hedged
// attempts are canceled and drained, the read-point pin is released (so the
// writer's MRPL can advance past this replica's view), and only then does
// the node leave the network.
func (r *Reader) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
	r.reads.release(r.pin)
	r.fleet.cfg.Net.RemoveNode(r.node)
}
