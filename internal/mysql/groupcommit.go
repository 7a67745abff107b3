package mysql

import (
	"errors"
	"sync"

	"aurora/internal/core"
)

// ErrClosed is returned by a commit on a closed DB.
var ErrClosed = errors.New("mysql: database closed")

// groupCommitter batches concurrent commits into shared WAL flushes. The
// flush itself is serialized — InnoDB's log mutex — so commit throughput is
// bounded by the latency of one synchronous chain through EBS (and the
// standby, when mirrored) times the achievable group size. This is the
// structural stall Aurora removes by acknowledging quorums asynchronously
// (§3.1, §4.2.2).
type groupCommitter struct {
	db  *DB
	max int

	mu     sync.Mutex // orders every enqueue before stop's close of ch
	closed bool
	ch     chan commitReq
	exited chan struct{} // closed when loop returns
}

type commitReq struct {
	records []core.Record
	binlog  int
	done    chan error
}

func newGroupCommitter(db *DB, max int) *groupCommitter {
	g := &groupCommitter{db: db, ch: make(chan commitReq, 4096), exited: make(chan struct{}), max: max}
	go g.loop()
	return g
}

// commit enqueues and waits for the flush that covers this commit. After
// stop it fails with ErrClosed.
func (g *groupCommitter) commit(records []core.Record, binlogBytes int) error {
	req := commitReq{records: records, binlog: binlogBytes, done: make(chan error, 1)}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	g.ch <- req
	g.mu.Unlock()
	return <-req.done
}

// stop closes the queue and waits for the loop to flush every commit
// enqueued before it.
func (g *groupCommitter) stop() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.ch)
	}
	g.mu.Unlock()
	<-g.exited
}

func (g *groupCommitter) loop() {
	defer close(g.exited)
	for req := range g.ch {
		batch := []commitReq{req}
		// Absorb whatever else is already queued, up to the group bound.
	drain:
		for len(batch) < g.max {
			select {
			case more, ok := <-g.ch:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		var all []core.Record
		binlog := 0
		for _, b := range batch {
			all = append(all, b.records...)
			binlog += b.binlog
		}
		err := g.db.flushWAL(all)
		if err == nil && binlog > 0 {
			err = g.db.writeBinlog(binlog)
		}
		for _, b := range batch {
			b.done <- err
		}
	}
}
