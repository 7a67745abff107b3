package core

import (
	"bytes"
	"context"
	"testing"
)

// Allocation pins for the zero-allocation log hot path. The benchmarks
// report allocs/op for the two encode stages; the tests pin them at zero in
// steady state so a regression fails plain `go test`, not just a benchmark
// someone has to remember to run.

func benchMTRs(n, recs int) []*MTR {
	ms := make([]*MTR, n)
	data := bytes.Repeat([]byte{0xA5}, 48)
	for i := range ms {
		m := &MTR{Txn: uint64(i + 1)}
		for j := 0; j < recs; j++ {
			m.AddDelta(PGID(j%3), PageID(i*recs+j), uint32(j*8), data)
		}
		ms[i] = m
	}
	return ms
}

func BenchmarkRecordBodyEncode(b *testing.B) {
	r := Record{LSN: 123456, PrevLSN: 123455, Type: RecPageDelta, PG: 4,
		Page: 8192, Txn: 99, Offset: 512, Data: bytes.Repeat([]byte{7}, 64)}
	buf := make([]byte, r.BodySize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PutBody(buf)
	}
}

// BenchmarkFrameGroup measures a full group frame — route, stamp, chain,
// arena encode, batched CRC — plus the release that recycles the arena.
// Steady state must be allocation-free: the arena, group shell, and per-PG
// scratch are all pooled.
func BenchmarkFrameGroup(b *testing.B) {
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	ms := benchMTRs(8, 4)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := f.FrameGroup(ctx, ms)
		if err != nil {
			b.Fatal(err)
		}
		g.Release()
	}
}

func TestRecordBodyEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact-zero pin runs in normal builds")
	}
	r := Record{LSN: 9, PrevLSN: 8, Type: RecPageDelta, PG: 2, Page: 5,
		Txn: 3, Offset: 10, Data: []byte("payload")}
	buf := make([]byte, r.BodySize())
	if avg := testing.AllocsPerRun(200, func() { r.PutBody(buf) }); avg != 0 {
		t.Fatalf("record body encode allocates %.2f times per record, want 0", avg)
	}
}

func TestFrameGroupSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact-zero pin runs in normal builds")
	}
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	ms := benchMTRs(8, 4)
	ctx := context.Background()
	frame := func() {
		g, err := f.FrameGroup(ctx, ms)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	// Warm the pools and scratch: the first frames grow the per-PG
	// accumulator, the touched list, and the arena/group pools.
	for i := 0; i < 8; i++ {
		frame()
	}
	if avg := testing.AllocsPerRun(100, frame); avg != 0 {
		t.Fatalf("steady-state FrameGroup allocates %.2f times per group, want 0", avg)
	}
}
