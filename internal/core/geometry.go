package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Geometry is the volume's page→PG routing table: an immutable, epoch-
// numbered stripe map that is the single source of truth for placement.
// Pages hash onto a fixed number of stripes (page mod Stripes — the "high
// entropy" spread of §3.3) and each stripe is assigned to one protection
// group. Growing a volume (§3: PGs are appended on demand) never changes a
// page's stripe, only a stripe's PG, so a rebalance moves whole stripes and
// every reassignment is a new epoch. All methods are read-only; mutation
// constructors (WithPGs, MoveStripe) return a new table with Epoch+1.
type Geometry struct {
	epoch   uint64
	pgs     int
	stripes []PGID // stripe index -> protection group
}

// stripesPerPG sets the routing granularity: enough stripes per PG that a
// grown volume can rebalance to an even spread, with a floor so small
// volumes can still grow severalfold.
const (
	stripesPerPG = 16
	minStripes   = 64
)

// Geometry errors.
var (
	ErrBadGeometry  = errors.New("core: malformed geometry")
	ErrStripeRange  = errors.New("core: stripe index out of range")
	ErrPGRange      = errors.New("core: protection group out of range")
	ErrShrinkVolume = errors.New("core: geometry cannot drop protection groups")
)

// UniformGeometry returns the initial geometry for a volume of pgs
// protection groups: stripe i → PG i mod pgs (equivalent to the classic
// page-mod-PGs striping when pgs divides the stripe count). The first
// epoch is 1 so that epoch 0 can mean "no geometry learned yet".
func UniformGeometry(pgs int) *Geometry {
	if pgs <= 0 {
		return nil
	}
	n := pgs * stripesPerPG
	if n < minStripes {
		n = minStripes
	}
	stripes := make([]PGID, n)
	for i := range stripes {
		stripes[i] = PGID(i % pgs)
	}
	return &Geometry{epoch: 1, pgs: pgs, stripes: stripes}
}

// NewGeometry builds a geometry from explicit parts (the decode path).
func NewGeometry(epoch uint64, pgs int, stripes []PGID) (*Geometry, error) {
	if epoch == 0 || pgs <= 0 || len(stripes) == 0 {
		return nil, ErrBadGeometry
	}
	for _, pg := range stripes {
		if int(pg) >= pgs {
			return nil, fmt.Errorf("%w: stripe maps to pg %d of %d", ErrBadGeometry, pg, pgs)
		}
	}
	return &Geometry{epoch: epoch, pgs: pgs, stripes: append([]PGID(nil), stripes...)}, nil
}

// Epoch returns the geometry's version number.
func (g *Geometry) Epoch() uint64 { return g.epoch }

// PGs returns the number of protection groups the geometry routes over.
func (g *Geometry) PGs() int { return g.pgs }

// Stripes returns the number of stripes (fixed for the volume's lifetime).
func (g *Geometry) Stripes() int { return len(g.stripes) }

// StripeOf maps a page onto its stripe. Stripe membership never changes,
// only the stripe's PG assignment does.
func (g *Geometry) StripeOf(id PageID) int {
	return int(uint64(id) % uint64(len(g.stripes)))
}

// PG maps a page onto its protection group under this geometry.
func (g *Geometry) PG(id PageID) PGID {
	return g.stripes[g.StripeOf(id)]
}

// StripePG returns the PG a stripe is assigned to.
func (g *Geometry) StripePG(stripe int) PGID {
	return g.stripes[stripe]
}

// WithPGs returns a new geometry (Epoch+1) covering n protection groups
// with the stripe table unchanged — the first half of a Grow: the new PGs
// exist but hold no stripes until the rebalancer moves some over.
func (g *Geometry) WithPGs(n int) (*Geometry, error) {
	if n < g.pgs {
		return nil, fmt.Errorf("%w: %d -> %d", ErrShrinkVolume, g.pgs, n)
	}
	return &Geometry{epoch: g.epoch + 1, pgs: n, stripes: g.stripes}, nil
}

// MoveStripe returns a new geometry (Epoch+1) with one stripe reassigned —
// the cutover step of a stripe migration.
func (g *Geometry) MoveStripe(stripe int, to PGID) (*Geometry, error) {
	if stripe < 0 || stripe >= len(g.stripes) {
		return nil, fmt.Errorf("%w: %d of %d", ErrStripeRange, stripe, len(g.stripes))
	}
	if int(to) >= g.pgs {
		return nil, fmt.Errorf("%w: pg %d of %d", ErrPGRange, to, g.pgs)
	}
	stripes := append([]PGID(nil), g.stripes...)
	stripes[stripe] = to
	return &Geometry{epoch: g.epoch + 1, pgs: g.pgs, stripes: stripes}, nil
}

// StripeMove is one step of a rebalance plan.
type StripeMove struct {
	Stripe int
	From   PGID
	To     PGID
}

// GrowthPlan returns the stripe moves that even the stripe distribution
// over the geometry's PGs: PGs holding more than their share donate
// stripes to PGs holding less (typically freshly appended, empty ones).
// The plan is deterministic; applying the moves in order via MoveStripe
// (one epoch per cutover) lands every PG within one stripe of the mean.
func (g *Geometry) GrowthPlan() []StripeMove {
	counts := make([]int, g.pgs)
	for _, pg := range g.stripes {
		counts[pg]++
	}
	base := len(g.stripes) / g.pgs
	extra := len(g.stripes) % g.pgs
	want := func(pg int) int {
		if pg < extra {
			return base + 1
		}
		return base
	}
	var movable []int
	for s, pg := range g.stripes {
		if counts[pg] > want(int(pg)) {
			counts[pg]--
			movable = append(movable, s)
		}
	}
	var moves []StripeMove
	i := 0
	for pg := 0; pg < g.pgs && i < len(movable); pg++ {
		for counts[pg] < want(pg) && i < len(movable) {
			s := movable[i]
			i++
			moves = append(moves, StripeMove{Stripe: s, From: g.stripes[s], To: PGID(pg)})
			counts[pg]++
		}
	}
	return moves
}

// geometryMagic guards the encoded form ("AGEO").
const geometryMagic = uint32(0x4147454F)

// AppendEncode appends the geometry's manifest serialisation to buf and
// returns the extended slice (append convention, matching Record),
// so a point-in-time restore of a grown volume routes pages correctly.
func (g *Geometry) AppendEncode(buf []byte) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], geometryMagic)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:], g.epoch)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(g.pgs))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(g.stripes)))
	buf = append(buf, tmp[:4]...)
	for _, pg := range g.stripes {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(pg))
		buf = append(buf, tmp[:4]...)
	}
	return buf
}

// DecodeGeometry decodes an AppendEncode payload.
func DecodeGeometry(buf []byte) (*Geometry, error) {
	if len(buf) < 20 {
		return nil, ErrBadGeometry
	}
	if binary.LittleEndian.Uint32(buf) != geometryMagic {
		return nil, ErrBadGeometry
	}
	epoch := binary.LittleEndian.Uint64(buf[4:])
	pgs := int(binary.LittleEndian.Uint32(buf[12:]))
	n := int(binary.LittleEndian.Uint32(buf[16:]))
	if n <= 0 || len(buf) < 20+4*n {
		return nil, ErrBadGeometry
	}
	stripes := make([]PGID, n)
	for i := range stripes {
		stripes[i] = PGID(binary.LittleEndian.Uint32(buf[20+4*i:]))
	}
	return NewGeometry(epoch, pgs, stripes)
}

// String renders a compact description.
func (g *Geometry) String() string {
	return fmt.Sprintf("geometry{epoch=%d pgs=%d stripes=%d}", g.epoch, g.pgs, len(g.stripes))
}
