package aurora

import (
	"fmt"
	"testing"
	"time"
)

// autoTuneSteps drives a little traffic through the tenant and reports
// whether its adaptive controller stepped within the wait.
func autoTuneSteps(t *testing.T, c *Cluster, tag string, wait time.Duration) bool {
	t.Helper()
	base := c.Stats().AutoTuneSteps
	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("%s%03d", tag, i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(wait)
	for c.Stats().AutoTuneSteps == base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

func knobNames(c *Cluster) string {
	var names []string
	for _, k := range c.Stats().Knobs {
		names = append(names, k.Name)
	}
	return fmt.Sprint(names)
}

// TestOpenVolumeAutoTuneSameAcrossFailover: a tenant's control-plane state
// is a property of its Options, not of how its current writer came up. An
// AutoTune tenant is adaptive from OpenVolume on (it used to start static
// and only turn adaptive after its first Failover), a static tenant stays
// static, and both expose the same knobs before and after a failover.
func TestOpenVolumeAutoTuneSameAcrossFailover(t *testing.T) {
	f, err := NewStorageFleet(FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, tc := range []struct {
		name     string
		autoTune bool
	}{{"adaptive", true}, {"static", false}} {
		c, err := f.OpenVolume(tc.name, Options{AutoTune: tc.autoTune, DisableBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		// A static tenant never steps, so only wait long for the adaptive one.
		wait := 2 * time.Second
		if !tc.autoTune {
			wait = 100 * time.Millisecond
		}
		knobs := knobNames(c)
		if len(c.Stats().Knobs) != 4 {
			t.Fatalf("%s: knobs %s, want 4", tc.name, knobs)
		}
		if got := autoTuneSteps(t, c, "pre", wait); got != tc.autoTune {
			t.Fatalf("%s: controller stepping before failover = %v, want %v", tc.name, got, tc.autoTune)
		}
		c.CrashWriter()
		if _, err := c.Failover(); err != nil {
			t.Fatal(err)
		}
		if got := autoTuneSteps(t, c, "post", wait); got != tc.autoTune {
			t.Fatalf("%s: controller stepping after failover = %v, want %v", tc.name, got, tc.autoTune)
		}
		if got := knobNames(c); got != knobs {
			t.Fatalf("%s: knobs after failover %s, before %s", tc.name, got, knobs)
		}
	}
}
