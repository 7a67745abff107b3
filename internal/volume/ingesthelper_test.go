package volume

import (
	"context"
	"testing"

	"aurora/internal/core"
	"aurora/internal/storage"
)

// nodeIngest injects one hand-positioned record (explicit LSN and backlink)
// straight into a storage node, stamped for volume vol. A throwaway framer
// seeded at the record's position makes the production encode path stamp
// exactly those values; the batch then goes through the node's Ingest entry
// point the way a sender's flight would, with the per-batch result folded
// into the returned error.
func nodeIngest(t testing.TB, n *storage.Node, vol core.VolumeID, rec core.Record) (storage.Ack, error) {
	t.Helper()
	f := core.NewFramer(core.NewAllocator(rec.LSN-1, 0), map[core.PGID]core.LSN{rec.PG: rec.PrevLSN})
	f.SetVolume(vol)
	g, err := f.FrameGroup(context.Background(), []*core.MTR{{Records: []core.Record{rec}}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ack, results, err := n.Ingest(context.Background(), []core.BatchView{g.Batches[0].View()}, 0, 0, nil)
	if err != nil {
		return ack, err
	}
	return ack, results[0].Err
}
