package chaos

import (
	"crypto/sha256"
	"fmt"
	"sync"
)

// digest is a SHA-256 of a value's bytes: the client-side truth the harness
// verifies every read against.
type digest [sha256.Size]byte

func digestOf(val []byte) digest { return sha256.Sum256(val) }

// entry is one write a client attempted: its global sequence number, the
// value's digest, and whether the commit was acknowledged. Unacknowledged
// entries (commit deadline fired, commit error under faults) are "maybe"
// writes: the engine's detach-without-withdrawal contract means they may
// still become durable, so reads are allowed — never required — to see
// them.
type entry struct {
	seq   uint64
	dig   digest
	acked bool
}

// keyState is the per-key write history, ascending by seq. Each key is
// written by exactly one client goroutine, so the history is totally
// ordered and the last acknowledged entry is the floor every subsequent
// read must reach.
type keyState struct {
	entries []entry
}

// Ledger is the client-side acknowledgment ledger: the ground truth the
// integrity checks compare storage against. All methods are safe for
// concurrent use by the workload clients.
type Ledger struct {
	mu   sync.Mutex
	seq  uint64
	keys map[string]*keyState
}

func NewLedger() *Ledger { return &Ledger{keys: make(map[string]*keyState)} }

// Begin records an attempted write of val to key before the commit is
// issued, returning the entry's global sequence number. Until Ack, the
// entry is a "maybe": observable but not required.
func (l *Ledger) Begin(key string, val []byte) uint64 {
	d := digestOf(val)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ks := l.keys[key]
	if ks == nil {
		ks = &keyState{}
		l.keys[key] = ks
	}
	ks.entries = append(ks.entries, entry{seq: l.seq, dig: d})
	return l.seq
}

// Ack marks a write acknowledged: from this point on, no read of the key
// may ever observe a value older than this entry.
func (l *Ledger) Ack(key string, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ks := l.keys[key]
	for i := len(ks.entries) - 1; i >= 0; i-- {
		if ks.entries[i].seq == seq {
			ks.entries[i].acked = true
			return
		}
	}
}

// Mark returns the current global sequence number — a consistent cut used
// to bracket backup sweeps for restore-time verification.
func (l *Ledger) Mark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// ReadMarker captures the verification floor for a read about to be issued:
// the sequence of the key's last acknowledged write (ok=false when nothing
// has been acknowledged yet). Capturing the marker BEFORE the read begins
// makes the check sound under concurrency: any commit acknowledged after
// capture only widens what the read is allowed to return.
func (l *Ledger) ReadMarker(key string) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ks := l.keys[key]
	if ks == nil {
		return 0, false
	}
	for i := len(ks.entries) - 1; i >= 0; i-- {
		if ks.entries[i].acked {
			return ks.entries[i].seq, true
		}
	}
	return 0, false
}

// VerifyRead judges a completed read against the marker captured before it
// was issued. The rules:
//
//   - found: the value's digest must match the marker entry or any later
//     entry (acked or maybe). A match against an entry OLDER than the
//     marker is a lost acknowledged commit; an unknown digest is
//     corruption. Both are violations.
//   - not found: a violation iff a write had been acknowledged (marker
//     exists) — an acknowledged key can never vanish.
func (l *Ledger) VerifyRead(key string, marker uint64, hadMarker bool, val []byte, found bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ks := l.keys[key]
	if !found {
		if hadMarker {
			return fmt.Errorf("key %s: acknowledged write (seq %d) not found", key, marker)
		}
		return nil
	}
	d := digestOf(val)
	if ks == nil {
		return fmt.Errorf("key %s: read returned a value never written", key)
	}
	for i := len(ks.entries) - 1; i >= 0; i-- {
		e := ks.entries[i]
		if e.dig != d {
			continue
		}
		if !hadMarker || e.seq >= marker {
			return nil
		}
		// The digest matches only entries below the floor: a committed
		// write was lost. Distinguish from the duplicate-payload case by
		// scanning the remainder for an at-or-above-floor match.
		for j := i - 1; j >= 0; j-- {
			if ks.entries[j].dig == d && ks.entries[j].seq >= marker {
				return nil
			}
		}
		return fmt.Errorf("key %s: stale value (seq %d) observed after ack of seq %d", key, e.seq, marker)
	}
	return fmt.Errorf("key %s: checksum mismatch — value matches no write ever attempted", key)
}

// VerifyRestored judges a key read from a point-in-time restore bracketed
// by ledger marks s0 (taken when the backup sweep started) and s1 (taken
// when the restore point was stamped). The restored value must be one of:
//
//   - the floor: the last write acknowledged at or before s0;
//   - any write attempted in (s0, s1] — commits racing the sweep may or
//     may not have made the cut;
//   - any UNACKNOWLEDGED write with seq ≤ s1: a deadline-detached commit
//     keeps shipping asynchronously after its caller gave up, so its bytes
//     can surface in any backup taken after it was begun.
//
// Values begun after s1 can never appear (the sweep had finished), an
// acknowledged-then-superseded value older than the floor can never
// reappear (both were durable before the sweep), and the floor itself can
// never be missing.
func (l *Ledger) VerifyRestored(key string, s0, s1 uint64, val []byte, found bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ks := l.keys[key]
	var floor *entry
	if ks != nil {
		for i := len(ks.entries) - 1; i >= 0; i-- {
			e := ks.entries[i]
			if e.acked && e.seq <= s0 {
				floor = &ks.entries[i]
				break
			}
		}
	}
	if !found {
		if floor != nil {
			return fmt.Errorf("key %s: write acked before backup (seq %d) missing after restore", key, floor.seq)
		}
		return nil
	}
	d := digestOf(val)
	if ks == nil {
		return fmt.Errorf("key %s: restore returned a value never written", key)
	}
	for i := range ks.entries {
		e := ks.entries[i]
		if e.dig != d {
			continue
		}
		if floor != nil && e.seq == floor.seq {
			return nil
		}
		if e.seq > s0 && e.seq <= s1 {
			return nil
		}
		if !e.acked && e.seq <= s1 {
			return nil
		}
	}
	return fmt.Errorf("key %s: restored value outside the backup window [floor..s1=%d]", key, s1)
}

// Keys returns every key the ledger has seen (sorted order not guaranteed).
func (l *Ledger) Keys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.keys))
	for k := range l.keys {
		out = append(out, k)
	}
	return out
}

// Stats summarises ledger volume for scenario reporting.
func (l *Ledger) Stats() (keys int, writes, acked uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ks := range l.keys {
		for _, e := range ks.entries {
			writes++
			if e.acked {
				acked++
			}
		}
	}
	return len(l.keys), writes, acked
}
