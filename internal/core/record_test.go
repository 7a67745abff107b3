package core

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{LSN: 1, PrevLSN: 0, Type: RecPageDelta, PG: 0, Page: 0, Txn: 1, Offset: 0, Data: []byte{1}},
		{LSN: 42, PrevLSN: 17, Type: RecPageInit, Flags: FlagCPL, PG: 3, Page: 999, Txn: 7, Data: bytes.Repeat([]byte{0xAB}, 4096)},
		{LSN: 100, PrevLSN: 99, Type: RecTxnCommit, Flags: FlagCPL, PG: 1, Txn: 55},
		{LSN: 1 << 62, PrevLSN: 1<<62 - 1, Type: RecTxnAbort, PG: 1<<32 - 1, Page: 1<<63 - 1, Txn: 1<<64 - 1, Offset: 1<<32 - 1, Data: []byte("hello")},
	}
	for i, want := range cases {
		buf := want.AppendEncode(nil)
		if len(buf) != want.EncodedSize() {
			t.Fatalf("case %d: encoded %d bytes, EncodedSize says %d", i, len(buf), want.EncodedSize())
		}
		got, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d", i, n, len(buf))
		}
		if !recordsEqual(&got, &want) {
			t.Fatalf("case %d: got %v want %v", i, got.String(), want.String())
		}
	}
}

func recordsEqual(a, b *Record) bool {
	return a.LSN == b.LSN && a.PrevLSN == b.PrevLSN && a.Type == b.Type &&
		a.Flags == b.Flags && a.PG == b.PG && a.Page == b.Page &&
		a.Txn == b.Txn && a.Offset == b.Offset && bytes.Equal(a.Data, b.Data)
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(lsn, prev, page, txn uint64, pg, offset uint32, typ uint8, cpl bool, data []byte) bool {
		r := Record{
			LSN: LSN(lsn), PrevLSN: LSN(prev), Page: PageID(page), Txn: txn,
			PG: PGID(pg), Offset: offset,
			Type: RecordType(typ%uint8(RecCheckpointHint)) + 1,
			Data: data,
		}
		if cpl {
			r.Flags = FlagCPL
		}
		buf := r.AppendEncode(nil)
		got, n, err := DecodeRecord(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if len(got.Data) == 0 && len(r.Data) == 0 {
			got.Data, r.Data = nil, nil
		}
		return recordsEqual(&got, &r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordDecodeCorruption(t *testing.T) {
	r := Record{LSN: 9, PrevLSN: 8, Type: RecPageDelta, PG: 2, Page: 5, Txn: 3, Offset: 10, Data: []byte("payload")}
	buf := r.AppendEncode(nil)

	t.Run("short buffer", func(t *testing.T) {
		for i := 0; i < len(buf); i++ {
			if _, _, err := DecodeRecord(buf[:i]); err == nil {
				t.Fatalf("decode of %d-byte prefix succeeded", i)
			}
		}
	})
	t.Run("flipped bit", func(t *testing.T) {
		for i := 0; i < len(buf); i++ {
			bad := append([]byte(nil), buf...)
			bad[i] ^= 0x40
			if _, _, err := DecodeRecord(bad); err == nil {
				// A flip may legitimately decode only if it leaves the CRC
				// valid, which a single bit flip cannot.
				t.Fatalf("decode with corrupted byte %d succeeded", i)
			}
		}
	})
	t.Run("zero type rejected", func(t *testing.T) {
		bad := Record{LSN: 1, Type: RecordType(0), PG: 1}
		b := bad.AppendEncode(nil)
		if _, _, err := DecodeRecord(b); err == nil {
			t.Fatal("record with type 0 decoded")
		}
	})
}

func TestRecordAppendToExisting(t *testing.T) {
	prefix := []byte("prefix-bytes")
	r := Record{LSN: 2, PrevLSN: 1, Type: RecPageDelta, PG: 0, Page: 1, Data: []byte("x")}
	buf := r.AppendEncode(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("AppendEncode clobbered existing bytes")
	}
	got, _, err := DecodeRecord(buf[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 2 {
		t.Fatalf("got LSN %d", got.LSN)
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{LSN: 5, Type: RecPageDelta, Data: []byte{1, 2, 3}}
	c := r.Clone()
	r.Data[0] = 99
	if c.Data[0] != 1 {
		t.Fatal("clone shares data with original")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	m := &MTR{Txn: 1}
	for i := 0; i < 10; i++ {
		m.AddDelta(7, PageID(i%3), uint32(i*4), []byte{byte(i)})
	}
	f := NewFramer(NewAllocator(ZeroLSN, 0), nil)
	g, err := f.FrameGroup(context.Background(), []*MTR{m})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	buf := g.Batches[0].Wire
	size := batchHeaderSize
	for i := range m.Records {
		size += m.Records[i].BodySize()
	}
	if len(buf) != size {
		t.Fatalf("encoded %d, header + record bodies %d", len(buf), size)
	}
	v, n, err := ParseBatchView(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || v.PG() != 7 || v.NumRecords() != 10 {
		t.Fatalf("decode mismatch: n=%d pg=%d count=%d", n, v.PG(), v.NumRecords())
	}
	// The framer stamped LSN 1..10 with backlinks 0..9 onto m.Records in
	// place; the wire must carry exactly those records.
	i := 0
	err = v.EachRecord(func(got *Record) bool {
		want := &m.Records[i]
		if want.LSN != LSN(i+1) || want.PrevLSN != LSN(i) {
			t.Fatalf("record %d framed as LSN %d prev %d", i, want.LSN, want.PrevLSN)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
		i++
		return true
	})
	if err != nil || i != 10 {
		t.Fatalf("walked %d records, err %v", i, err)
	}
}

func TestBatchDecodeEmpty(t *testing.T) {
	// The framer never emits an empty batch, but the decoder must still
	// accept one (a bare header describing a zero-length body).
	buf := make([]byte, batchHeaderSize)
	putBatchHeader(buf, 1, 0, 0, 0, ZeroLSN, ZeroLSN, nil)
	v, _, err := ParseBatchView(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	records := 0
	if err := v.EachRecord(func(*Record) bool { records++; return true }); err != nil {
		t.Fatal(err)
	}
	if records != 0 || v.NumRecords() != 0 {
		t.Fatal("expected empty batch")
	}
	if _, _, err := ParseBatchView(nil); err == nil {
		t.Fatal("decode of nil buffer succeeded")
	}
}

func TestRecordPredicates(t *testing.T) {
	d := Record{Type: RecPageDelta}
	if !d.PageRecord() {
		t.Fatal("delta should be a page record")
	}
	c := Record{Type: RecTxnCommit, Flags: FlagCPL}
	if c.PageRecord() {
		t.Fatal("commit is not a page record")
	}
	if !c.IsCPL() {
		t.Fatal("flagged record should be CPL")
	}
}

func BenchmarkRecordEncode(b *testing.B) {
	r := Record{LSN: 123456, PrevLSN: 123455, Type: RecPageDelta, PG: 4, Page: 8192, Txn: 99, Offset: 512, Data: bytes.Repeat([]byte{7}, 64)}
	buf := make([]byte, 0, r.EncodedSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendEncode(buf[:0])
	}
}

func BenchmarkRecordDecode(b *testing.B) {
	r := Record{LSN: 123456, PrevLSN: 123455, Type: RecPageDelta, PG: 4, Page: 8192, Txn: 99, Offset: 512, Data: bytes.Repeat([]byte{7}, 64)}
	buf := r.AppendEncode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}
