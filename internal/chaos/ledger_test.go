package chaos

import (
	"strings"
	"testing"
)

func TestLedgerVerifyReadRules(t *testing.T) {
	l := NewLedger()
	v1, v2, v3 := []byte("one"), []byte("two"), []byte("three")

	// Nothing acked yet: not-found is fine, and any attempted value is fine.
	m, had := l.ReadMarker("k")
	if had {
		t.Fatal("marker before any ack")
	}
	if err := l.VerifyRead("k", m, had, nil, false); err != nil {
		t.Fatalf("not-found before ack: %v", err)
	}

	s1 := l.Begin("k", v1)
	l.Ack("k", s1)
	m, had = l.ReadMarker("k")
	if !had || m != s1 {
		t.Fatalf("marker = %d/%v, want %d/true", m, had, s1)
	}

	// The acked value passes; not-found and never-written values fail.
	if err := l.VerifyRead("k", m, had, v1, true); err != nil {
		t.Fatalf("acked value rejected: %v", err)
	}
	if err := l.VerifyRead("k", m, had, nil, false); err == nil {
		t.Fatal("vanished acked key accepted")
	}
	if err := l.VerifyRead("k", m, had, []byte("bogus"), true); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("unknown digest: %v", err)
	}

	// A maybe (unacked) newer write is allowed but not required.
	s2 := l.Begin("k", v2)
	if err := l.VerifyRead("k", m, had, v2, true); err != nil {
		t.Fatalf("maybe write rejected: %v", err)
	}
	if err := l.VerifyRead("k", m, had, v1, true); err != nil {
		t.Fatalf("floor value rejected while newer write unacked: %v", err)
	}

	// Once the newer write acks, a marker captured after it must refuse v1.
	l.Ack("k", s2)
	m2, _ := l.ReadMarker("k")
	if m2 != s2 {
		t.Fatalf("marker = %d, want %d", m2, s2)
	}
	if err := l.VerifyRead("k", m2, true, v1, true); err == nil {
		t.Fatal("stale value accepted after newer ack")
	}
	// But a read issued against the OLD marker may still legally see v2 or v3.
	l.Begin("k", v3)
	if err := l.VerifyRead("k", m, had, v3, true); err != nil {
		t.Fatalf("newer maybe rejected against old marker: %v", err)
	}
}

func TestLedgerDuplicatePayloadNotStale(t *testing.T) {
	l := NewLedger()
	same := []byte("same-bytes")
	s1 := l.Begin("k", same)
	l.Ack("k", s1)
	s2 := l.Begin("k", same) // rewrite of identical bytes
	l.Ack("k", s2)
	m, _ := l.ReadMarker("k")
	if m != s2 {
		t.Fatalf("marker %d, want %d", m, s2)
	}
	// The digest matches an old entry AND the marker entry: not stale.
	if err := l.VerifyRead("k", m, true, same, true); err != nil {
		t.Fatalf("duplicate payload flagged stale: %v", err)
	}
}

func TestLedgerVerifyRestoredWindow(t *testing.T) {
	l := NewLedger()
	vPre, vIn, vPost := []byte("pre"), []byte("in"), []byte("post")
	sPre := l.Begin("k", vPre)
	l.Ack("k", sPre)
	s0 := l.Mark()
	sIn := l.Begin("k", vIn) // racing the sweep: may or may not be captured
	s1 := l.Mark()
	l.Ack("k", sIn)
	sPost := l.Begin("k", vPost) // after the restore point: must never appear
	l.Ack("k", sPost)

	if err := l.VerifyRestored("k", s0, s1, vPre, true); err != nil {
		t.Fatalf("pre-sweep floor rejected: %v", err)
	}
	if err := l.VerifyRestored("k", s0, s1, vIn, true); err != nil {
		t.Fatalf("in-window write rejected: %v", err)
	}
	if err := l.VerifyRestored("k", s0, s1, vPost, true); err == nil {
		t.Fatal("post-window write accepted")
	}
	if err := l.VerifyRestored("k", s0, s1, nil, false); err == nil {
		t.Fatal("missing pre-sweep acked key accepted")
	}
	// A key never acked before the sweep may legitimately be absent.
	l.Begin("fresh", vPost)
	if err := l.VerifyRestored("fresh", s0, s0, nil, false); err != nil {
		t.Fatalf("absent unacked key rejected: %v", err)
	}
}

// A deadline-detached commit keeps shipping after its caller gave up: its
// bytes may surface in any backup taken after it was begun, even though it
// predates the sweep mark and was never acknowledged.
func TestLedgerVerifyRestoredDetachedCommit(t *testing.T) {
	l := NewLedger()
	vAcked, vDetached := []byte("acked"), []byte("detached")
	sA := l.Begin("k", vAcked)
	l.Ack("k", sA)
	l.Begin("k", vDetached) // CommitCtx deadline fired: maybe, never acked
	s0 := l.Mark()
	s1 := s0 // sweep with nothing racing it
	if err := l.VerifyRestored("k", s0, s1, vDetached, true); err != nil {
		t.Fatalf("pre-sweep detached write rejected: %v", err)
	}
	if err := l.VerifyRestored("k", s0, s1, vAcked, true); err != nil {
		t.Fatalf("floor rejected: %v", err)
	}
	// A detached write begun AFTER the sweep finished can never appear.
	l.Begin("k", []byte("late-detach"))
	if err := l.VerifyRestored("k", s0, s1, []byte("late-detach"), true); err == nil {
		t.Fatal("post-sweep detached write accepted")
	}
}

func TestPlanIsDeterministicAndSeedsDiffer(t *testing.T) {
	a, b := Plan(42, 40), Plan(42, 40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Seed == a[1].Seed {
		t.Fatal("adjacent scenarios share a seed")
	}
	// One sweep covers every cell before cycling.
	seen := map[string]bool{}
	for _, sc := range a[:32] {
		seen[sc.Name()] = true
	}
	if len(seen) != 32 {
		t.Fatalf("first sweep covered %d/32 cells", len(seen))
	}
	if c := Plan(7, 40); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different master seeds drew identical prefixes")
	}
}
