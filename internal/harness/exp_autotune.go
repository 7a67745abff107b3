package harness

import (
	"fmt"
	"strings"
	"time"

	"aurora/internal/control"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/workload"
)

// AutotuneExperiment measures the adaptive control plane: the same
// write-heavy workload at 5x the base connection count runs once with every
// latency knob pinned at its static default and once with AutoTune steering
// them from windowed per-stage measurements. At this concurrency the static
// inflight-group budget saturates, so commits pile up in commit.queue — the
// controller's job is to notice that queueing dominates framing+shipping
// and widen the batching knobs until the queue share falls, without giving
// back throughput.
//
// The shape to reproduce: adaptive mode cuts commit.queue's share of the
// commit critical path versus static at equal load, with writes/sec no
// worse than a whisker below static, and the knob trajectory (visible here
// and in Stats/aurora-bench -json) shows the controller actually moved —
// the gain comes from steering, not from a different static default.
func AutotuneExperiment(s Scale) (*Result, error) {
	conns := s.Clients * 5
	mix := workload.SysbenchWriteOnly(s.Rows)
	w := window{rows: s.Rows, valueSize: 100, mix: mix, opts: workload.Options{Clients: conns, Duration: s.Duration, Seed: 151}}

	type mode struct {
		name       string
		cfg        engine.Config
		rate       float64
		errors     uint64
		p50, p95   time.Duration
		queueShare float64
		traced     int
		steps      uint64
		adjusts    uint64
		knobs      []control.KnobState
	}
	modes := []*mode{
		{name: "static", cfg: engine.Config{TraceEvery: 4, TraceRing: 1024}},
		{name: "adaptive", cfg: engine.Config{
			TraceEvery: 4, TraceRing: 1024,
			AutoTune: true, AutoTuneInterval: 25 * time.Millisecond,
		}},
	}

	var raw strings.Builder
	for i, m := range modes {
		var traj []string
		res, err := measure(NewAurora, AuroraConfig{
			PGs: 4, CachePages: 4096,
			Net:    benchNet(151 + int64(i)),
			Disk:   disk.NVMe(),
			Engine: m.cfg,
		}, w, func(au *AuroraStack) func() {
			// Sample the knob panel while the workload runs so the
			// trajectory — not just the endpoint — is on record for the
			// adaptive mode.
			stopSampling := sampleKnobs(au, s.Duration/10)
			return func() {
				traj = stopSampling()
				shares, _, _, n := commitPathShares(au.DB.Tracer())
				es := au.DB.Stats()
				m.p50 = es.Pipeline.CommitP50
				m.p95 = es.Pipeline.CommitP95
				m.queueShare = shares["commit.queue"]
				m.traced = n
				m.steps = es.AutoTuneSteps
				m.adjusts = es.AutoTuneAdjusts
				m.knobs = es.Knobs
			}
		})
		if err != nil {
			return nil, err
		}
		m.rate = res.WritesPerSec(mix)
		m.errors = res.Errors

		if m.name == "adaptive" {
			fmt.Fprintf(&raw, "knob trajectory (adaptive, %d conns):\n", conns)
			if len(traj) == 0 {
				raw.WriteString("  (no knob movement recorded)\n")
			}
			for _, line := range traj {
				raw.WriteString(line + "\n")
			}
		}
	}

	st, ad := modes[0], modes[1]
	t := &Table{Header: []string{"Mode", "writes/sec", "commit p50", "commit p95", "commit.queue share", "knob adjusts"}}
	for _, m := range modes {
		t.Add(m.name, fmt.Sprintf("%.0f", m.rate), fmtDur(m.p50), fmtDur(m.p95),
			fmt.Sprintf("%.1f%%", m.queueShare), fmt.Sprintf("%d", m.adjusts))
	}
	knobRow := func(name string) {
		var sv, av int64
		for _, k := range st.knobs {
			if k.Name == name {
				sv = k.Value
			}
		}
		for _, k := range ad.knobs {
			if k.Name == name {
				av = k.Value
			}
		}
		t.Add("knob "+name, fmt.Sprintf("%d", sv), "", "", fmt.Sprintf("-> %d", av), "")
	}
	knobRow(control.KnobCommitGroup)
	knobRow(control.KnobInflightGroups)
	knobRow(control.KnobHedgeMultPct)
	knobRow(control.KnobBackoffCapUS)

	return &Result{
		ID: "Autotune", Title: "static knobs vs adaptive control plane at 5x connections",
		Table: t,
		Metrics: map[string]float64{
			"conns":                   float64(conns),
			"static_writes_sec":       st.rate,
			"adaptive_writes_sec":     ad.rate,
			"throughput_ratio":        ratio(ad.rate, st.rate),
			"static_queue_share":      st.queueShare,
			"adaptive_queue_share":    ad.queueShare,
			"static_commits_traced":   float64(st.traced),
			"adaptive_commits_traced": float64(ad.traced),
			"autotune_steps":          float64(ad.steps),
			"autotune_adjusts":        float64(ad.adjusts),
			"static_adjusts":          float64(st.adjusts),
			"errors":                  float64(st.errors + ad.errors),
		},
		Notes: []string{
			"same workload, same substrate; only the control plane differs",
			"adaptive should cut commit.queue's critical-path share at equal-or-better writes/sec",
			"knob rows show static value -> controller-steered value at run end",
		},
		Raw: raw.String(),
	}, nil
}

// sampleKnobs samples the stack's knob panel every interval until the
// returned stop is called; stop returns every change it saw, one line each.
func sampleKnobs(au *AuroraStack, every time.Duration) (stop func() []string) {
	var traj []string
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := map[string]int64{}
		tick := time.NewTicker(every)
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for _, k := range au.DB.Stats().Knobs {
					if last[k.Name] != k.Value {
						traj = append(traj, fmt.Sprintf("  %6s  %s: %d -> %d",
							time.Since(start).Round(time.Millisecond),
							k.Name, last[k.Name], k.Value))
						last[k.Name] = k.Value
					}
				}
			}
		}
	}()
	return func() []string {
		close(quit)
		<-done
		return traj
	}
}
