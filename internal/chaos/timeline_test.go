package chaos

import (
	"context"
	"errors"
	"testing"
)

// fakeFault records inject/heal transitions so schedules can be asserted
// without a cluster.
type fakeFault struct {
	injects int
	heals   int
	active  bool
	healErr error
}

func (ff *fakeFault) fault(name string) Fault {
	return Fault{
		Name: name,
		Inject: func(context.Context) {
			ff.injects++
			ff.active = true
		},
		Heal: func(context.Context) error {
			ff.heals++
			ff.active = false
			return ff.healErr
		},
	}
}

func TestTimelineSchedulesWindows(t *testing.T) {
	var a, b fakeFault
	tl := &Timeline{Steps: []Step{
		{Start: 2, Duration: 3, Fault: a.fault("a")},
		{Start: 4, Duration: 1, Fault: b.fault("b")},
	}}
	ctx := context.Background()
	for tick := 0; tick < tl.End()+1; tick++ {
		tl.Tick(ctx, tick)
		switch {
		case tick < 2:
			if a.active || b.active {
				t.Fatalf("tick %d: premature injection a=%v b=%v", tick, a.active, b.active)
			}
		case tick == 4:
			if !a.active || !b.active {
				t.Fatalf("tick %d: overlap expected, a=%v b=%v", tick, a.active, b.active)
			}
		}
	}
	if a.active || b.active {
		t.Fatal("faults still active after End")
	}
	if a.injects != 1 || a.heals != 1 || b.injects != 1 || b.heals != 1 {
		t.Fatalf("transitions: a=%d/%d b=%d/%d", a.injects, a.heals, b.injects, b.heals)
	}
	if errs := tl.HealAll(ctx); len(errs) != 0 {
		t.Fatalf("heal errors: %v", errs)
	}
}

func TestTimelineRapidCyclesReinject(t *testing.T) {
	var ff fakeFault
	steps := make([]Step, 0, 4)
	for c := 0; c < 4; c++ {
		steps = append(steps, Step{Start: c * 3, Duration: 1, Fault: ff.fault("cycle")})
	}
	tl := &Timeline{Steps: steps}
	for tick := 0; tick <= tl.End(); tick++ {
		tl.Tick(context.Background(), tick)
	}
	if ff.injects != 4 || ff.heals != 4 {
		t.Fatalf("rapid cycles: %d injects, %d heals, want 4/4", ff.injects, ff.heals)
	}
}

func TestTimelineHealAllSkipsPendingAndKeepsErrors(t *testing.T) {
	var a, b fakeFault
	b.healErr = errors.New("no peers")
	tl := &Timeline{Steps: []Step{
		{Start: 0, Duration: 10, Fault: b.fault("active")},
		{Start: 50, Duration: 1, Fault: a.fault("never-started")},
	}}
	tl.Tick(context.Background(), 0)
	errs := tl.HealAll(context.Background())
	if len(errs) != 1 || !errors.Is(errs[0], b.healErr) {
		t.Fatalf("heal errors: %v", errs)
	}
	if a.injects != 0 {
		t.Fatal("HealAll injected a pending step")
	}
	if b.heals != 1 {
		t.Fatalf("active step healed %d times", b.heals)
	}
}
