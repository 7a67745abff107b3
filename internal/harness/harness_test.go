package harness

import (
	"strings"
	"testing"

	"aurora/internal/disk"
	"aurora/internal/netsim"
)

// TestShapes runs every experiment of the paper report at Quick scale and
// holds it to its shape; the recorded Full-scale numbers, checked against
// the same shapes, live in EXPERIMENTS.md.
func TestShapes(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(Quick())
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			res.Print(&out)
			if err := e.Check(res); err != nil {
				t.Fatalf("shape: %v\n%s", err, out.String())
			}
		})
	}
}

// TestWriterNodeFollowsStackName: a stack reads its writer's traffic under
// the writer's own name, whatever the stack is called.
func TestWriterNodeFollowsStackName(t *testing.T) {
	au, err := NewAurora(AuroraConfig{Name: "grow", PGs: 1, Net: netsim.FastLocal(), Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	defer au.Close()
	if err := au.DB.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if sent, _, _, _, ok := au.Net.NodeStats(au.WriterNode()); !ok || sent == 0 {
		t.Fatalf("writer %q sent %d messages (known to the network: %v), want > 0", au.WriterNode(), sent, ok)
	}
}
