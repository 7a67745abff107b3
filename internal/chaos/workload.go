package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aurora/internal/engine"
)

// client is one workload goroutine with a disjoint key set and its own
// deterministic rng. One op per round, dispatched behind a barrier so the
// fault timeline ticks between rounds with nothing in flight.
type client struct {
	id     int
	rng    *rand.Rand
	keys   []string
	db     *engine.DB
	led    *Ledger
	stress StressKind

	writes, writesOK int
	reads, readsOK   int
	violations       []string
}

func newClients(n int, sc Scenario, db *engine.DB, led *Ledger) []*client {
	out := make([]*client, n)
	for i := range out {
		c := &client{
			id:     i,
			rng:    rand.New(rand.NewSource(sc.Seed + int64(i)*7919)),
			db:     db,
			led:    led,
			stress: sc.Stress,
		}
		for k := 0; k < 4; k++ {
			c.keys = append(c.keys, fmt.Sprintf("c%02d-k%02d", i, k))
		}
		out[i] = c
	}
	return out
}

// round runs one op per client concurrently and waits for all of them —
// the barrier that keeps timeline ticks off the commit path.
func round(ctx context.Context, clients []*client) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.step(ctx)
		}(c)
	}
	wg.Wait()
}

func (c *client) step(ctx context.Context) {
	switch r := c.rng.Float64(); {
	case r < 0.55:
		c.write(ctx)
	case r < 0.80:
		c.read(ctx, false)
	default:
		c.read(ctx, true)
	}
}

// opTimeout bounds one workload op. The deadline stressor runs tight
// enough that commits routinely detach (ErrDeadlineExceeded with the write
// possibly still landing) — exactly the maybe-writes the ledger is built
// to judge.
func (c *client) opTimeout() time.Duration {
	if c.stress == StressDeadline {
		return 600 * time.Microsecond
	}
	return 3 * time.Second
}

func (c *client) randVal(lo, hi int) []byte {
	v := make([]byte, lo+c.rng.Intn(hi-lo+1))
	c.rng.Read(v)
	return v
}

func (c *client) write(ctx context.Context) {
	if c.stress == StressBigTx {
		c.bigTx(ctx)
		return
	}
	key := c.keys[c.rng.Intn(len(c.keys))]
	val := c.randVal(24, 192)
	seq := c.led.Begin(key, val)
	c.writes++
	opCtx, cancel := context.WithTimeout(ctx, c.opTimeout())
	defer cancel()
	tx := c.db.BeginCtx(opCtx)
	if err := tx.Put([]byte(key), val); err != nil {
		tx.Abort()
		return
	}
	if err := tx.CommitCtx(opCtx); err != nil {
		return // maybe: detached or failed, never acknowledged
	}
	c.writesOK++
	c.led.Ack(key, seq)
}

// bigTx writes every one of the client's keys in one transaction with
// payloads large enough to span pages — the multi-page MTR path under
// faults. All-or-nothing acknowledgment: the commit acks every staged
// entry or none.
func (c *client) bigTx(ctx context.Context) {
	opCtx, cancel := context.WithTimeout(ctx, c.opTimeout())
	defer cancel()
	c.writes++
	type staged struct {
		key string
		seq uint64
	}
	tx := c.db.BeginCtx(opCtx)
	var entries []staged
	for _, key := range c.keys {
		val := c.randVal(512, 1000) // near the engine's value cap: spans pages, still legal
		entries = append(entries, staged{key: key, seq: c.led.Begin(key, val)})
		if err := tx.Put([]byte(key), val); err != nil {
			tx.Abort()
			return
		}
	}
	if err := tx.CommitCtx(opCtx); err != nil {
		return
	}
	c.writesOK++
	for _, e := range entries {
		c.led.Ack(e.key, e.seq)
	}
}

// read verifies one of the client's keys: marker captured before the read
// is issued, digest judged after. The snapshot variant bypasses the buffer
// cache and fetches pages from the storage fleet — committed data must be
// durable out there, not merely warm in the writer's memory.
func (c *client) read(ctx context.Context, snapshot bool) {
	key := c.keys[c.rng.Intn(len(c.keys))]
	marker, had := c.led.ReadMarker(key)
	c.reads++
	opCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	var (
		val   []byte
		found bool
		err   error
	)
	if snapshot {
		tx := c.db.BeginSnapshotCtx(opCtx)
		val, found, err = tx.Get([]byte(key))
		tx.Abort()
	} else {
		val, found, err = c.db.GetCtx(opCtx, []byte(key))
	}
	if err != nil {
		return // availability blip under an active fault; integrity is the invariant
	}
	c.readsOK++
	if verr := c.led.VerifyRead(key, marker, had, val, found); verr != nil {
		c.violations = append(c.violations, verr.Error())
	}
}

// seed writes every key once before the fault timeline starts, so each key
// has an acknowledged floor for read verification to bite on.
func (c *client) seed(ctx context.Context) {
	for _, key := range c.keys {
		for attempt := 0; attempt < 3; attempt++ {
			val := c.randVal(24, 192)
			seq := c.led.Begin(key, val)
			c.writes++
			opCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
			tx := c.db.BeginCtx(opCtx)
			err := tx.Put([]byte(key), val)
			if err == nil {
				err = tx.CommitCtx(opCtx)
			} else {
				tx.Abort()
			}
			cancel()
			if err == nil {
				c.writesOK++
				c.led.Ack(key, seq)
				break
			}
		}
	}
}

// verifyOnce is one full read-back pass over every key through both the
// cached path and a storage-truth snapshot. Integrity violations are
// returned in viols (permanent: retrying cannot unsee wrong bytes); read
// errors are returned in err (transient: the recovery loop retries them
// until its bound expires).
func verifyOnce(ctx context.Context, db *engine.DB, led *Ledger, keys []string) (viols []string, err error) {
	for _, key := range keys {
		marker, had := led.ReadMarker(key)
		opCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
		val, found, gerr := db.GetCtx(opCtx, []byte(key))
		if gerr == nil {
			if verr := led.VerifyRead(key, marker, had, val, found); verr != nil {
				viols = append(viols, "cached read: "+verr.Error())
			}
			tx := db.BeginSnapshotCtx(opCtx)
			val, found, gerr = tx.Get([]byte(key))
			tx.Abort()
			if gerr == nil {
				if verr := led.VerifyRead(key, marker, had, val, found); verr != nil {
					viols = append(viols, "snapshot read: "+verr.Error())
				}
			}
		}
		cancel()
		if gerr != nil && err == nil {
			err = fmt.Errorf("key %s: %w", key, gerr)
		}
	}
	return viols, err
}
