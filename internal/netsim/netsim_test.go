package netsim

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func twoNodeNet(cfg Config) *Network {
	n := New(cfg)
	n.AddNode("a", 0)
	n.AddNode("b", 1)
	n.AddNode("c", 0)
	return n
}

func TestSendCountsTraffic(t *testing.T) {
	n := twoNodeNet(FastLocal())
	for i := 0; i < 5; i++ {
		if err := n.Send(context.Background(), "a", "b", 100); err != nil {
			t.Fatal(err)
		}
	}
	s := n.Stats()
	if s.Messages != 5 || s.Bytes != 500 {
		t.Fatalf("stats %+v", s)
	}
	sent, sentB, _, _, ok := n.NodeStats("a")
	if !ok || sent != 5 || sentB != 500 {
		t.Fatalf("node a stats: %d %d", sent, sentB)
	}
	_, _, recv, recvB, _ := n.NodeStats("b")
	if recv != 5 || recvB != 500 {
		t.Fatalf("node b stats: %d %d", recv, recvB)
	}
	n.ResetStats()
	if s := n.Stats(); s.Messages != 0 || s.Bytes != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestSendUnknownAndDownNodes(t *testing.T) {
	n := twoNodeNet(FastLocal())
	if err := n.Send(context.Background(), "a", "zz", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown dest: %v", err)
	}
	if err := n.Send(context.Background(), "zz", "a", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown src: %v", err)
	}
	// b is the only node in AZ 1: taking the AZ down takes b down.
	n.SetAZDown(1, true)
	if err := n.Send(context.Background(), "a", "b", 1); !errors.Is(err, ErrAZDown) {
		t.Fatalf("down dest: %v", err)
	}
	n.SetAZDown(1, false)
	if err := n.Send(context.Background(), "a", "b", 1); err != nil {
		t.Fatalf("restored node: %v", err)
	}
	if n.Stats().Rejects != 1 {
		t.Fatalf("rejects %d, want 1", n.Stats().Rejects)
	}
}

func TestAZFailureIsCorrelated(t *testing.T) {
	n := twoNodeNet(FastLocal())
	n.SetAZDown(0, true)
	// Both a and c live in AZ 0: everything touching them fails.
	if err := n.Send(context.Background(), "a", "b", 1); !errors.Is(err, ErrAZDown) {
		t.Fatalf("a->b: %v", err)
	}
	if err := n.Send(context.Background(), "b", "c", 1); !errors.Is(err, ErrAZDown) {
		t.Fatalf("b->c: %v", err)
	}
	n.SetAZDown(0, false)
	if err := n.Send(context.Background(), "a", "b", 1); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyModel(t *testing.T) {
	cfg := Config{IntraAZ: time.Millisecond, CrossAZ: 5 * time.Millisecond}
	n := twoNodeNet(cfg)
	var slept []time.Duration
	var mu sync.Mutex
	n.SetSleeper(func(d time.Duration) { mu.Lock(); slept = append(slept, d); mu.Unlock() })
	if err := n.Send(context.Background(), "a", "c", 0); err != nil { // same AZ
		t.Fatal(err)
	}
	if err := n.Send(context.Background(), "a", "b", 0); err != nil { // cross AZ
		t.Fatal(err)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 5*time.Millisecond {
		t.Fatalf("slept %v", slept)
	}
}

func TestBandwidthSerializationDelay(t *testing.T) {
	cfg := Config{IntraAZ: 0, Bandwidth: 1000} // 1000 B/s
	n := twoNodeNet(cfg)
	var slept time.Duration
	n.SetSleeper(func(d time.Duration) { slept += d })
	if err := n.Send(context.Background(), "a", "c", 500); err != nil {
		t.Fatal(err)
	}
	if slept != 500*time.Millisecond {
		t.Fatalf("serialization delay %v, want 500ms", slept)
	}
}

func TestDropProbability(t *testing.T) {
	n := twoNodeNet(Config{Seed: 7})
	n.SetDropProb(0.5)
	drops := 0
	const total = 2000
	for i := 0; i < total; i++ {
		err := n.Send(context.Background(), "a", "b", 10)
		if errors.Is(err, ErrDropped) {
			drops++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if drops < total/3 || drops > 2*total/3 {
		t.Fatalf("drops %d of %d, expected ~half", drops, total)
	}
	if n.Stats().Drops != uint64(drops) {
		t.Fatalf("drop counter %d != %d", n.Stats().Drops, drops)
	}
	// Dropped messages still cost sender traffic but never arrive.
	_, _, recv, _, _ := n.NodeStats("b")
	if recv != uint64(total-drops) {
		t.Fatalf("receiver saw %d, want %d", recv, total-drops)
	}
}

func TestNodeReplacementMovesAZ(t *testing.T) {
	n := twoNodeNet(FastLocal())
	if az, _ := n.NodeAZ("a"); az != 0 {
		t.Fatal("setup")
	}
	n.AddNode("a", 2)
	if az, _ := n.NodeAZ("a"); az != 2 {
		t.Fatal("AddNode did not move node")
	}
	n.RemoveNode("a")
	if _, ok := n.NodeAZ("a"); ok {
		t.Fatal("node not removed")
	}
}

func TestConcurrentSends(t *testing.T) {
	n := twoNodeNet(Config{Jitter: 0.3, OutlierProb: 0.01, OutlierMult: 5})
	n.SetDropProb(0.01)
	n.SetSleeper(func(time.Duration) {})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				err := n.Send(context.Background(), "a", "b", 64)
				if err != nil && !errors.Is(err, ErrDropped) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := n.Stats().Messages; got != 4000 {
		t.Fatalf("messages %d, want 4000", got)
	}
}

func TestNodeDelayGraySlow(t *testing.T) {
	n := New(FastLocal())
	var slept time.Duration
	n.SetSleeper(func(d time.Duration) { slept = d })
	n.AddNode("a", 0)
	n.AddNode("b", 0)
	if err := n.SetNodeDelay("b", 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(context.Background(), "a", "b", 10); err != nil {
		t.Fatal(err)
	}
	if slept < 3*time.Millisecond {
		t.Fatalf("slept %v, want >= 3ms from gray-slow delay", slept)
	}
	// Clearing restores zero latency even under FastLocal.
	if err := n.SetNodeDelay("b", 0); err != nil {
		t.Fatal(err)
	}
	slept = 0
	if err := n.Send(context.Background(), "a", "b", 10); err != nil {
		t.Fatal(err)
	}
	if slept != 0 {
		t.Fatalf("slept %v after clearing delay", slept)
	}
	if err := n.SetNodeDelay("ghost", time.Millisecond); err == nil {
		t.Fatal("delay on unknown node accepted")
	}
}

func TestRuntimeDropProbOverride(t *testing.T) {
	n := New(FastLocal())
	n.AddNode("a", 0)
	n.AddNode("b", 1)
	n.SetDropProb(1)
	if err := n.Send(context.Background(), "a", "b", 8); !errors.Is(err, ErrDropped) {
		t.Fatalf("send with p=1: %v", err)
	}
	n.SetDropProb(0)
	if err := n.Send(context.Background(), "a", "b", 8); err != nil {
		t.Fatalf("send after clearing drop prob: %v", err)
	}
}

func TestLinkDropIsDirectional(t *testing.T) {
	n := New(FastLocal())
	n.AddNode("a", 0)
	n.AddNode("b", 0)
	n.SetLinkDropProb("b", "a", 1)
	if err := n.Send(context.Background(), "a", "b", 8); err != nil {
		t.Fatalf("forward path: %v", err)
	}
	if err := n.Send(context.Background(), "b", "a", 8); !errors.Is(err, ErrDropped) {
		t.Fatalf("reverse path: %v", err)
	}
	n.SetLinkDropProb("b", "a", 0)
	if err := n.Send(context.Background(), "b", "a", 8); err != nil {
		t.Fatalf("reverse path after clear: %v", err)
	}
}

// TestDelayedSendAllocatesNothing pins the real-clock wait: a hop with a
// latency waits on a pooled timer, with a context that can be canceled and
// with one that cannot.
func TestDelayedSendAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a random share of what is put; the pin runs in normal builds")
	}
	n := twoNodeNet(Config{IntraAZ: 20 * time.Microsecond})
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"cancelable", cctx}, {"background", context.Background()}} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := n.Send(tc.ctx, "a", "c", 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f objects per delayed send, want 0", tc.name, allocs)
		}
	}
}

func TestCancelMidFlightAbandonsSend(t *testing.T) {
	n := twoNodeNet(Config{IntraAZ: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	err := n.Send(ctx, "a", "c", 64)
	took := time.Since(start)
	if !errors.Is(err, ErrAbandoned) || !errors.Is(err, context.Canceled) {
		t.Fatalf("send canceled mid-flight: %v, want ErrAbandoned wrapping context.Canceled", err)
	}
	if took > 500*time.Millisecond {
		t.Fatalf("abandoned send returned after %v, the hop's whole latency is 1s", took)
	}
	if s := n.Stats(); s.Abandons != 1 || s.Messages != 0 || s.Bytes != 0 {
		t.Fatalf("stats %+v, want one abandon and no message counted", s)
	}
	if sent, _, _, _, _ := n.NodeStats("a"); sent != 0 {
		t.Fatalf("sender counted %d messages for an abandoned send", sent)
	}
}

// TestHopAfterAbandonedHopsWaitsItsLatency: the timers of abandoned hops go
// back to the pool, and the hop that reuses one must still wait its whole
// latency. The pause after the abandons outlasts their latency, so a timer
// pooled while still armed would have fired into its channel by then.
func TestHopAfterAbandonedHopsWaitsItsLatency(t *testing.T) {
	const short, long = 2 * time.Millisecond, 20 * time.Millisecond
	n := twoNodeNet(Config{IntraAZ: short, CrossAZ: long})
	// A loaded host may fire the cancel after the hop's timer; such a hop
	// is delivered and does not count.
	for i, abandoned := 0, 0; abandoned < 8; i++ {
		if i == 1000 {
			t.Fatalf("%d of %d hops abandoned", abandoned, i)
		}
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(100*time.Microsecond, cancel)
		switch err := n.Send(ctx, "a", "c", 8); {
		case errors.Is(err, ErrAbandoned):
			abandoned++
		case err != nil:
			t.Fatal(err)
		}
	}
	time.Sleep(4 * short)
	for i := 0; i < 8; i++ {
		start := time.Now()
		if err := n.Send(context.Background(), "a", "b", 8); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < long {
			t.Fatalf("hop %d after abandoned hops took %v, want at least %v", i, took, long)
		}
	}
}

// TestCanceledHopsUnderLoadKeepTheirLatency races cancels against timers
// firing: the cancels are timed at half, all and one and a half of the
// hop's latency.
// A send that returns nil must have waited that latency, and the counters
// must add up.
func TestCanceledHopsUnderLoadKeepTheirLatency(t *testing.T) {
	const lat, workers, sends = 3 * time.Millisecond, 8, 60
	n := twoNodeNet(Config{IntraAZ: lat})
	var delivered, abandoned atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				stop := time.AfterFunc(lat*time.Duration(1+i%3)/2, cancel)
				start := time.Now()
				err := n.Send(ctx, "a", "c", 8)
				took := time.Since(start)
				stop.Stop()
				cancel()
				switch {
				case err == nil:
					delivered.Add(1)
					if took < lat {
						t.Errorf("send returned nil after %v, under its %v latency", took, lat)
						return
					}
				case errors.Is(err, ErrAbandoned):
					abandoned.Add(1)
				default:
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := n.Stats()
	if s.Messages != delivered.Load() || s.Abandons != abandoned.Load() {
		t.Fatalf("stats %+v, want %d messages and %d abandons", s, delivered.Load(), abandoned.Load())
	}
	t.Logf("%d delivered, %d abandoned", delivered.Load(), abandoned.Load())
}
