package quorum

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"aurora/internal/core"
)

func TestConfigValidation(t *testing.T) {
	for _, c := range []Config{Aurora(), TwoOfThree(), MirroredFourOfFour()} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
	bad := []Config{
		{V: 6, Vw: 3, Vr: 3, AZs: 3, PerAZ: 2}, // Vr+Vw == V: stale reads possible
		{V: 6, Vw: 3, Vr: 4, AZs: 3, PerAZ: 2}, // 2*Vw == V: conflicting writes
		{V: 0, Vw: 0, Vr: 0},
		{V: 6, Vw: 4, Vr: 3, AZs: 3, PerAZ: 3}, // placement mismatch
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("%+v validated", c)
		}
	}
}

// Property: any valid (V,Vw,Vr) has intersecting read/write sets and
// non-conflicting write sets.
func TestQuorumRulesProperty(t *testing.T) {
	f := func(v, vw, vr uint8) bool {
		c := Config{V: int(v%9) + 1, Vw: int(vw%9) + 1, Vr: int(vr%9) + 1}
		err := c.Validate()
		intersect := c.Vr+c.Vw > c.V
		majority := 2*c.Vw > c.V
		sane := c.Vw <= c.V && c.Vr <= c.V
		// Validate must accept exactly the schemes with both properties
		// (bounded by V); note Validate does not require Vw<=V explicitly,
		// but Vr+Vw>V with Vw>V/2 and Vr>=1 is what the paper needs.
		if err == nil && (!intersect || !majority) {
			return false
		}
		if err != nil && intersect && majority && sane {
			// Placement fields unset: should have validated.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAuroraAZPlusOne(t *testing.T) {
	a := Aurora()
	// (a) lose an entire AZ (2 copies) plus one more node: reads survive.
	if !a.SurvivesAZPlusOne() {
		t.Fatal("Aurora scheme must survive AZ+1 for reads")
	}
	if !a.ReadAvailable(3) || a.ReadAvailable(4) {
		t.Fatal("read availability boundary should be exactly 3 failures")
	}
	// (b) lose an entire AZ: writes survive; any third failure blocks them.
	if !a.SurvivesAZForWrites() {
		t.Fatal("Aurora scheme must keep writing through an AZ loss")
	}
	if !a.WriteAvailable(2) || a.WriteAvailable(3) {
		t.Fatal("write availability boundary should be exactly 2 failures")
	}
}

func TestTwoOfThreeBreaksUnderAZPlusOne(t *testing.T) {
	c := TwoOfThree()
	// AZ failure (1 copy) plus one background-noise failure = 2 failures:
	// only 1 copy left, below Vr=2 — the §2.1 inadequacy argument.
	if c.SurvivesAZPlusOne() {
		t.Fatal("2/3 should NOT survive AZ+1")
	}
	if !c.WriteAvailable(1) {
		t.Fatal("2/3 keeps writes through a single failure")
	}
	if c.WriteAvailable(2) {
		t.Fatal("2/3 loses writes at two failures")
	}
}

func TestMirroredFourOfFourFragility(t *testing.T) {
	c := MirroredFourOfFour()
	// A single failed copy blocks all writes — §3.1's criticism.
	if c.WriteAvailable(1) {
		t.Fatal("4/4 should lose write availability on any failure")
	}
}

func TestReplicaAZPlacement(t *testing.T) {
	a := Aurora()
	want := []int{0, 0, 1, 1, 2, 2}
	for i, az := range want {
		if got := a.ReplicaAZ(i); got != az {
			t.Fatalf("replica %d in AZ %d, want %d", i, got, az)
		}
	}
}

func TestTrackerReachesQuorum(t *testing.T) {
	tr := NewTracker(Aurora())
	for _, i := range []int{0, 1, 1, 2} { // the duplicate must not double count
		if tr.Ack(i) {
			t.Fatalf("ack %d reported a resolution with %d acks, need 4", i, tr.Acks())
		}
	}
	if tr.Resolved() {
		t.Fatal("resolved with 3 acks, need 4")
	}
	if !tr.Ack(5) {
		t.Fatal("the fourth ack did not report the resolution")
	}
	if !tr.Resolved() {
		t.Fatal("did not resolve at 4 acks")
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if tr.Acks() != 4 {
		t.Fatalf("acks %d", tr.Acks())
	}
	// Later verdicts are recorded but resolve nothing a second time, and a
	// replica's first verdict stands.
	if tr.Ack(3) || tr.Nack(4) || tr.Nack(0) {
		t.Fatal("a verdict after the resolution reported a second one")
	}
	if tr.Err() != nil || tr.Acks() != 5 {
		t.Fatalf("after late verdicts: err=%v acks=%d", tr.Err(), tr.Acks())
	}
}

func TestTrackerImpossible(t *testing.T) {
	tr := NewTracker(Aurora())
	if tr.Nack(0) || tr.Nack(1) {
		t.Fatal("resolved with 2 nacks; one more failure still allows 4/6")
	}
	if tr.Resolved() {
		t.Fatal("resolved with 2 nacks; one more failure still allows 4/6")
	}
	if tr.Ack(1) || tr.Acks() != 0 {
		t.Fatal("an ack from a replica that already nacked counted")
	}
	if !tr.Nack(2) {
		t.Fatal("the third nack did not report the resolution")
	}
	if !tr.Resolved() {
		t.Fatal("did not fail at 3 nacks")
	}
	if tr.Err() != ErrQuorumImpossible {
		t.Fatalf("err %v", tr.Err())
	}
	if tr.Ack(3) || tr.Ack(4) || tr.Ack(5) || tr.Err() != ErrQuorumImpossible {
		t.Fatal("acks after the failure changed the verdict")
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(Aurora())
	var wg sync.WaitGroup
	var resolutions atomic.Int32
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if tr.Ack(i) {
				resolutions.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if !tr.Resolved() || tr.Err() != nil || tr.Acks() != 6 {
		t.Fatalf("resolved=%v err=%v acks=%d", tr.Resolved(), tr.Err(), tr.Acks())
	}
	if n := resolutions.Load(); n != 1 {
		t.Fatalf("%d calls reported the resolution, want exactly 1", n)
	}
}

func TestRepairTime(t *testing.T) {
	// The paper's example: 10GB on a 10Gbps link ≈ 10 seconds (§2.2, using
	// 1GB = 1e9 bytes as the paper's arithmetic implies).
	got := RepairTime(10_000_000_000, 10_000_000_000)
	if got != 8*time.Second { // 80Gbit over 10Gbps = 8s with SI units
		t.Fatalf("repair time %v", got)
	}
	if RepairTime(1, 0) != 0 {
		t.Fatal("zero bandwidth should return 0")
	}
}

func TestSimulateDurabilityShape(t *testing.T) {
	// Key claim of §2.2: with fast repair (small segments), the 4/6 scheme
	// rides through an AZ failure plus background noise, while 2/3 loses
	// quorum far more often under the same conditions.
	p := DurabilityParams{
		NodeMTTF: 500 * time.Hour,
		NodeMTTR: 1 * time.Hour,
		AZMTTF:   2000 * time.Hour,
		AZMTTR:   12 * time.Hour,
		Mission:  24 * 365 * time.Hour,
		Trials:   400,
		Seed:     42,
	}
	aurora := SimulateDurability(Aurora(), p)
	twoThree := SimulateDurability(TwoOfThree(), p)
	if aurora.ReadQuorumLossProb >= twoThree.ReadQuorumLossProb {
		t.Fatalf("4/6 read-loss %v should be below 2/3 read-loss %v",
			aurora.ReadQuorumLossProb, twoThree.ReadQuorumLossProb)
	}
	mirrored := SimulateDurability(MirroredFourOfFour(), p)
	if mirrored.WriteUnavailFraction <= aurora.WriteUnavailFraction {
		t.Fatalf("4/4 write-unavail %v should exceed 4/6 %v",
			mirrored.WriteUnavailFraction, aurora.WriteUnavailFraction)
	}
}

func TestSimulateDurabilityFastRepairShrinksRisk(t *testing.T) {
	// Reducing MTTR (the segmented-storage argument) must reduce the
	// probability of double faults compounding into quorum loss.
	base := DurabilityParams{
		NodeMTTF: 200 * time.Hour,
		AZMTTF:   1000 * time.Hour,
		AZMTTR:   6 * time.Hour,
		Mission:  24 * 365 * time.Hour,
		Trials:   300,
		Seed:     7,
	}
	slow := base
	slow.NodeMTTR = 10 * time.Hour
	fast := base
	fast.NodeMTTR = 10 * time.Second // 10GB segment on 10Gbps
	rSlow := SimulateDurability(Aurora(), slow)
	rFast := SimulateDurability(Aurora(), fast)
	if rFast.ReadQuorumLossProb > rSlow.ReadQuorumLossProb {
		t.Fatalf("fast repair %v should not exceed slow repair %v",
			rFast.ReadQuorumLossProb, rSlow.ReadQuorumLossProb)
	}
	if rFast.WriteUnavailFraction >= rSlow.WriteUnavailFraction {
		t.Fatalf("fast repair unavail %v should be below slow %v",
			rFast.WriteUnavailFraction, rSlow.WriteUnavailFraction)
	}
}

func TestTaurusMixValidationAndRoles(t *testing.T) {
	c := TaurusMix()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.Split() || Aurora().Split() {
		t.Fatal("TaurusMix must be split, Aurora must not")
	}
	if c.PageV() != 3 {
		t.Fatalf("page tier size %d, want 3", c.PageV())
	}
	for i := 0; i < 3; i++ {
		if c.Role(i) != core.RoleLog {
			t.Fatalf("replica %d role %v, want log", i, c.Role(i))
		}
	}
	for i := 3; i < 6; i++ {
		if c.Role(i) != core.RolePage {
			t.Fatalf("replica %d role %v, want page", i, c.Role(i))
		}
	}
	if Aurora().Role(0) != core.RoleFull {
		t.Fatal("non-split replicas must be full")
	}
	// Each tier stripes one replica per AZ: losing an AZ costs at most one
	// log and one page replica.
	for i := 0; i < 3; i++ {
		if c.ReplicaAZ(i) != i || c.ReplicaAZ(3+i) != i {
			t.Fatalf("split placement wrong: log %d in AZ %d, page %d in AZ %d",
				i, c.ReplicaAZ(i), 3+i, c.ReplicaAZ(3+i))
		}
	}
	bad := []Config{
		{V: 6, Vw: 4, Vr: 3, AZs: 3, PerAZ: 2, LogV: 6, LogVw: 4, LogVr: 3}, // no page replica
		{V: 6, Vw: 4, Vr: 3, AZs: 3, PerAZ: 2, LogV: 3, LogVw: 1, LogVr: 1}, // 2*LogVw <= LogV
		{V: 6, Vw: 4, Vr: 3, AZs: 3, PerAZ: 2, LogV: 3, LogVw: 2, LogVr: 1}, // LogVr+LogVw <= LogV
		{V: 6, Vw: 4, Vr: 3, AZs: 3, PerAZ: 2, LogV: 3, LogVw: 0, LogVr: 2}, // zero LogVw
		{V: 8, Vw: 5, Vr: 4, AZs: 2, PerAZ: 4, LogV: 4, LogVw: 3, LogVr: 2}, // LogV > AZs
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("%+v validated", b)
		}
	}
}

func TestLogTierTracker(t *testing.T) {
	// With the split on, commit acknowledgment resolves against the log
	// tier alone: 2 of 3 acks commit, 2 nacks make it impossible.
	lt := TaurusMix().LogTier()
	if lt.V != 3 || lt.Vw != 2 || lt.Vr != 2 {
		t.Fatalf("log tier %+v", lt)
	}
	tr := NewTracker(lt)
	if tr.Ack(0) || tr.Resolved() {
		t.Fatal("resolved with 1 ack, need 2")
	}
	if !tr.Ack(2) || !tr.Resolved() {
		t.Fatal("did not resolve at 2 log-tier acks")
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}

	tr = NewTracker(lt)
	if tr.Nack(1) || tr.Resolved() {
		t.Fatal("resolved with 1 nack; 2/3 still reachable")
	}
	if !tr.Nack(2) || !tr.Resolved() {
		t.Fatal("did not fail at 2 log-tier nacks")
	}
	if tr.Err() != ErrQuorumImpossible {
		t.Fatalf("err %v", tr.Err())
	}
}

func TestSimulateDurabilityTaurusMixNoWorse(t *testing.T) {
	// The satellite claim: the frugal mix — 3 synchronous log copies with
	// fast reprotection plus 3 async page copies — is no worse than the
	// 4/6 scheme on durability, and strictly better on write availability
	// (only 2 of 3 tiny log appends must land instead of 4 of 6 full
	// replica writes).
	p := DurabilityParams{
		NodeMTTF: 500 * time.Hour,
		NodeMTTR: 1 * time.Hour,
		AZMTTF:   2000 * time.Hour,
		AZMTTR:   12 * time.Hour,
		Mission:  24 * 365 * time.Hour,
		Trials:   400,
		Seed:     42,
		LogMTTR:  30 * time.Second, // tiny append-only suffix re-placed in seconds
	}
	aurora := SimulateDurability(Aurora(), p)
	taurus := SimulateDurability(TaurusMix(), p)
	if taurus.ReadQuorumLossProb > aurora.ReadQuorumLossProb {
		t.Fatalf("TaurusMix read-loss %v must not exceed 4/6's %v",
			taurus.ReadQuorumLossProb, aurora.ReadQuorumLossProb)
	}
	if taurus.WriteQuorumLossProb > aurora.WriteQuorumLossProb {
		t.Fatalf("TaurusMix write-loss %v must not exceed 4/6's %v",
			taurus.WriteQuorumLossProb, aurora.WriteQuorumLossProb)
	}
	if taurus.WriteUnavailFraction > aurora.WriteUnavailFraction {
		t.Fatalf("TaurusMix write-unavail %v must not exceed 4/6's %v",
			taurus.WriteUnavailFraction, aurora.WriteUnavailFraction)
	}
	// Without fast log reprotection the mix loses its edge: a 2-of-3
	// synchronous tier waiting out full outages is the §2.1 argument
	// against small quorums all over again.
	slow := p
	slow.LogMTTR = 0 // falls back to NodeMTTR, AZ outages ride full length
	taurusSlow := SimulateDurability(TaurusMix(), slow)
	if taurusSlow.ReadQuorumLossProb < taurus.ReadQuorumLossProb {
		t.Fatalf("slow reprotection %v should not beat fast %v",
			taurusSlow.ReadQuorumLossProb, taurus.ReadQuorumLossProb)
	}
}

func TestSimulateDurabilityDefaults(t *testing.T) {
	r := SimulateDurability(Aurora(), DurabilityParams{
		NodeMTTF: time.Hour, NodeMTTR: time.Minute, Mission: 10 * time.Hour,
	})
	if r.Trials != 1000 {
		t.Fatalf("default trials %d", r.Trials)
	}
}

// TestSimulateDurabilityGolden pins seeded results bit for bit. They were
// recorded at PR 23, when the model was two copies of the trial loop (one for
// split schemes): the single loop draws from the RNG in the same order and
// must sweep the same events.
func TestSimulateDurabilityGolden(t *testing.T) {
	type golden struct {
		name                 string
		cfg                  Config
		seed                 int64
		logMTTR              time.Duration
		read, write, unavail uint64 // math.Float64bits of the three results
	}
	const fast = 30 * time.Second
	for _, g := range []golden{
		{"4/6", Aurora(), 2, 0, 0x3fc2e147ae147ae1, 0x3fec28f5c28f5c29, 0x3f3461ea5dd2c926},             // 0.1475 0.88 3.110e-04
		{"2/3", TwoOfThree(), 2, 0, 0x3fe5851eb851eb85, 0x3fe5851eb851eb85, 0x3f2ad9ed7637ffb4},         // 0.6725 0.6725 2.049e-04
		{"taurus", TaurusMix(), 2, 0, 0x3fd51eb851eb851f, 0x3fd4a3d70a3d70a4, 0x3ef699b25bdd89c8},       // 0.33 0.3225 2.155e-05
		{"4/4", MirroredFourOfFour(), 2, 0, 0x3fac28f5c28f5c29, 0x3ff0000000000000, 0x3f943e54fca278d4}, // 0.055 1 1.977e-02
		{"4/6", Aurora(), 2, fast, 0x3fc2e147ae147ae1, 0x3fec28f5c28f5c29, 0x3f3461ea5dd2c926},          // LogMTTR is ignored unsplit
		{"taurus", TaurusMix(), 2, fast, 0x3f947ae147ae147b, 0x3f647ae147ae147b, 0x3e10c80420b9ece7},    // 0.02 0.0025 9.768e-10
		{"4/6", Aurora(), 42, 0, 0x3fc051eb851eb852, 0x3feb47ae147ae148, 0x3f339a65646fedcc},            // 0.1275 0.8525 2.991e-04
		{"2/3", TwoOfThree(), 42, 0, 0x3fe6f5c28f5c28f6, 0x3fe6f5c28f5c28f6, 0x3f2a2e42e2103b94},        // 0.7175 0.7175 1.997e-04
		{"taurus", TaurusMix(), 42, 0, 0x3fd599999999999a, 0x3fd51eb851eb851f, 0x3ef64c08dfd0e3a8},      // 0.3375 0.33 2.126e-05
		{"taurus", TaurusMix(), 42, fast, 0x3f8eb851eb851eb8, 0x3f7eb851eb851eb8, 0x3e369e5a1e1d9fdc},   // 0.015 0.0075 5.266e-09
	} {
		r := SimulateDurability(g.cfg, DurabilityParams{
			NodeMTTF: 500 * time.Hour, NodeMTTR: time.Hour,
			AZMTTF: 2000 * time.Hour, AZMTTR: 12 * time.Hour,
			Mission: 24 * 365 * time.Hour, Trials: 400, Seed: g.seed, LogMTTR: g.logMTTR,
		})
		got := [3]uint64{math.Float64bits(r.ReadQuorumLossProb), math.Float64bits(r.WriteQuorumLossProb), math.Float64bits(r.WriteUnavailFraction)}
		if got != [3]uint64{g.read, g.write, g.unavail} {
			t.Errorf("%s seed %d LogMTTR %v: read %v write %v unavail %v (bits %#x) differ from the recorded run",
				g.name, g.seed, g.logMTTR, r.ReadQuorumLossProb, r.WriteQuorumLossProb, r.WriteUnavailFraction, got)
		}
	}
}
