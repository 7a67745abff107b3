package objstore

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPutGetVersions(t *testing.T) {
	s := New()
	if v := s.Put("k", []byte("v1")); v != 1 {
		t.Fatalf("first version %d", v)
	}
	if v := s.Put("k", []byte("v2")); v != 2 {
		t.Fatalf("second version %d", v)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "v2" {
		t.Fatalf("get: %q %v", got, err)
	}
	old, err := s.GetVersion("k", 1)
	if err != nil || string(old) != "v1" {
		t.Fatalf("get v1: %q %v", old, err)
	}
	if _, err := s.GetVersion("k", 3); !errors.Is(err, ErrVersion) {
		t.Fatalf("missing version: %v", err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if s.Versions("k") != 2 {
		t.Fatal("version count")
	}
}

// TestDataIsolation: Put takes ownership of the caller's buffer — the stored
// version is that buffer, not a copy of it — and every read hands out a copy
// of its own, so no reader can change what the store holds.
func TestDataIsolation(t *testing.T) {
	s := New()
	src := []byte("abc")
	s.Put("k", src)
	if stored := s.objects["k"][0].Data; &stored[0] != &src[0] {
		t.Fatal("Put copied the buffer it was handed")
	}
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("get: %q", got)
	}
	got[0] = 'q'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("Get returned shared buffer")
	}
}

func TestGetAsOf(t *testing.T) {
	s := New()
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })
	s.Put("k", []byte("a"))
	now = time.Unix(2000, 0)
	s.Put("k", []byte("b"))

	data, id, err := s.GetAsOf("k", time.Unix(1500, 0))
	if err != nil || string(data) != "a" || id != 1 {
		t.Fatalf("as-of 1500: %q id=%d err=%v", data, id, err)
	}
	data, id, err = s.GetAsOf("k", time.Unix(2000, 0))
	if err != nil || string(data) != "b" || id != 2 {
		t.Fatalf("as-of 2000: %q id=%d err=%v", data, id, err)
	}
	if _, _, err := s.GetAsOf("k", time.Unix(500, 0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("as-of before first write: %v", err)
	}
}

func TestListAndDelete(t *testing.T) {
	s := New()
	s.Put("seg/1/log", nil)
	s.Put("seg/1/pages", nil)
	s.Put("seg/2/log", nil)
	s.Put("other", nil)
	got := s.List("seg/")
	want := []string{"seg/1/log", "seg/1/pages", "seg/2/log"}
	if len(got) != len(want) {
		t.Fatalf("list %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list %v, want %v", got, want)
		}
	}
	s.Delete("seg/1/log")
	s.Delete("seg/1/log") // idempotent
	if len(s.List("seg/1/log")) != 0 {
		t.Fatal("delete failed")
	}
}

func TestStatsAndConcurrency(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 100; i++ {
				s.Put(key, bytes.Repeat([]byte{byte(i)}, 10))
				if _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	puts, gets, b := s.Stats()
	if puts != 800 || gets != 800 || b != 8000 {
		t.Fatalf("stats %d %d %d", puts, gets, b)
	}
}
