// Package core implements the log-centric machinery at the heart of the
// Aurora design: log sequence numbers (LSNs), redo log records with the
// backlinks and CPL flags the consistency points are derived from, mini-
// transaction (MTR) framing, LSN-allocation back-pressure (LAL), and
// epoch-versioned truncation ranges used during volume recovery.
//
// The package is shared between the database engine (which generates the
// log) and the storage service (which consumes it); it has no dependencies
// on either side so that both can be tested against the same primitives.
package core

import "fmt"

// LSN is a log sequence number: a monotonically increasing value allocated
// by the single writer instance. LSN 0 is reserved and never allocated; it
// marks "no record" in backlinks and the initial value of all consistency
// points.
type LSN uint64

// ZeroLSN is the null LSN, used for backlinks of the first record of a
// protection group and as the initial durable point of an empty volume.
const ZeroLSN LSN = 0

// String renders the LSN for logs and errors.
func (l LSN) String() string { return fmt.Sprintf("lsn(%d)", uint64(l)) }

// PGID identifies a protection group: a set of six segment replicas spread
// two-per-AZ across three availability zones. A storage volume is a
// concatenation of protection groups.
type PGID uint32

// PageID identifies a fixed-size page within the volume's page space.
// The volume geometry maps PageIDs onto protection groups.
type PageID uint64

// SegmentID identifies one of the six replicas of a protection group.
type SegmentID struct {
	PG      PGID
	Replica uint8 // 0..5
}

// String renders the segment identity as pg/replica.
func (s SegmentID) String() string { return fmt.Sprintf("seg(%d/%d)", s.PG, s.Replica) }

// TruncationRange annuls every log record with an LSN in (From, To] on the
// storage service. Ranges carry an epoch so that a recovery that is itself
// interrupted and restarted cannot resurrect records annulled by a newer
// recovery attempt (§4.3).
type TruncationRange struct {
	Epoch uint64
	From  LSN // exclusive: records at or below From survive
	To    LSN // inclusive: records in (From, To] are annulled
}

// Annuls reports whether the range annuls the record at lsn.
func (t TruncationRange) Annuls(lsn LSN) bool { return lsn > t.From && lsn <= t.To }

// Supersedes reports whether this range takes precedence over other.
// Higher epochs always win; within an epoch the wider range wins.
func (t TruncationRange) Supersedes(other TruncationRange) bool {
	if t.Epoch != other.Epoch {
		return t.Epoch > other.Epoch
	}
	return t.To > other.To
}
