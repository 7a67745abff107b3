package storage

import (
	"context"
	"testing"

	"aurora/internal/core"
)

// Test shims over core.Framer and Node.Ingest. Production traffic arrives as
// wire-encoded BatchViews borrowed from the sender's arena, so tests frame
// the same way the writer does and fold Ingest's per-batch results back into
// a single error (the first per-batch rejection).

// frame frames one MTR and returns its per-PG batches as wire views. The
// group's creator reference is deliberately kept: the views stay valid for
// the rest of the test (redelivery tests re-send them) and the arena is
// reclaimed by the GC.
func frame(t testing.TB, f *core.Framer, m *core.MTR) []core.BatchView {
	t.Helper()
	g, err := f.FrameGroup(context.Background(), []*core.MTR{m})
	if err != nil {
		t.Fatal(err)
	}
	views := make([]core.BatchView, len(g.Batches))
	for i := range g.Batches {
		views[i] = g.Batches[i].View()
	}
	return views
}

// craft frames one hand-positioned record — explicit LSN and backlink, as a
// duplicate, orphan or late arrival would carry — by seeding a throwaway
// framer so that the production encode path stamps exactly those values.
func craft(t testing.TB, rec core.Record) core.BatchView {
	t.Helper()
	f := core.NewFramer(core.NewAllocator(rec.LSN-1, 0), map[core.PGID]core.LSN{rec.PG: rec.PrevLSN})
	return frame(t, f, &core.MTR{Records: []core.Record{rec}})[0]
}

// receiveBatches ingests a flight. Node-level errors come back from Ingest
// itself; otherwise the first per-batch rejection is returned.
func receiveBatches(n *Node, ctx context.Context, flight []core.BatchView, vdl, mrpl core.LSN) (Ack, error) {
	ack, results, err := n.Ingest(ctx, flight, vdl, mrpl, nil)
	if err != nil {
		return ack, err
	}
	for _, res := range results {
		if res.Err != nil {
			return ack, res.Err
		}
	}
	return ack, nil
}

// receiveBatch ingests a single batch.
func receiveBatch(n *Node, ctx context.Context, b core.BatchView, vdl, mrpl core.LSN) (Ack, error) {
	return receiveBatches(n, ctx, []core.BatchView{b}, vdl, mrpl)
}
