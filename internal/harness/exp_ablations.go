package harness

import (
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/volume"
	"aurora/internal/workload"
)

// AblationSyncCommit quantifies §4.2.2's asynchronous commit: the same
// engine with commits that hold the engine exclusively through quorum
// shipping and durability (a synchronous design) against the default
// asynchronous pipeline.
func AblationSyncCommit(s Scale) (*Result, error) {
	w := window{rows: s.Rows, valueSize: 100, mix: workload.SysbenchWriteOnly(s.Rows),
		opts: workload.Options{Clients: s.Clients, Duration: s.Duration, Seed: 71}}
	tps := func(sync bool, seed int64) (float64, error) {
		res, err := measure(NewAurora, AuroraConfig{
			PGs: 4, CachePages: 4096, Net: benchNet(seed), Disk: disk.FastLocal(),
			Engine: engine.Config{SyncCommit: sync},
		}, w, nil)
		return res.TPS(), err
	}
	syncTPS, err := tps(true, 71)
	if err != nil {
		return nil, err
	}
	asyncTPS, err := tps(false, 72)
	if err != nil {
		return nil, err
	}

	t := &Table{Header: []string{"Commit protocol", "Transactions/sec"}}
	t.Add("synchronous (stalls engine)", fmt.Sprintf("%.0f", syncTPS))
	t.Add("asynchronous (Aurora, §4.2.2)", fmt.Sprintf("%.0f", asyncTPS))
	return &Result{
		ID: "Ablation: async commit", Title: "Synchronous vs asynchronous commit",
		Table: t,
		Metrics: map[string]float64{
			"sync_tps":  syncTPS,
			"async_tps": asyncTPS,
			"speedup":   ratio(asyncTPS, syncTPS),
		},
	}, nil
}

// AblationCoalesce quantifies the §3.2 IO-flow batching: per-segment
// sender pipelines that coalesce queued log batches into one network IO,
// against one message per batch. Both rows keep the window of flights per
// replica (volume.SenderWindow), so the baseline is one batch per message,
// not one batch per round trip: what is ablated is the message count — the
// writer's network IOs per transaction — and what it costs in throughput.
// (Until the senders were windowed the baseline was stop-and-wait, and the
// 2.4x it showed was the waiting; EXPERIMENTS.md has both.)
func AblationCoalesce(s Scale) (*Result, error) {
	w := window{rows: s.Rows, valueSize: 100, mix: workload.SysbenchWriteOnly(s.Rows),
		opts: workload.Options{Clients: s.Clients, Duration: s.Duration, Seed: 73}}
	run := func(noCoalesce bool, seed int64) (tps, iosPerTxn float64, err error) {
		var out sent
		res, err := measure(NewAurora, AuroraConfig{
			PGs: 4, CachePages: 4096, Net: benchNet(seed), Disk: disk.FastLocal(),
			NoCoalesce: noCoalesce,
		}, w, writerSent(&out))
		return res.TPS(), ratio(float64(out.msgs), float64(res.Transactions)), err
	}
	nTPS, nIOs, err := run(true, 73)
	if err != nil {
		return nil, err
	}
	cTPS, cIOs, err := run(false, 74)
	if err != nil {
		return nil, err
	}

	t := &Table{Header: []string{"Log shipping", "Transactions/sec", "IOs/txn at writer"}}
	t.Add("one message per batch", fmt.Sprintf("%.0f", nTPS), fmtF(nIOs))
	t.Add("queued batches share a message", fmt.Sprintf("%.0f", cTPS), fmtF(cIOs))
	return &Result{
		ID: "Ablation: log batching", Title: "Batches per network message, same window of flights per replica (§3.2 IO flow)",
		Table: t,
		Notes: []string{
			fmt.Sprintf("both rows keep up to %d flights in the air per replica; only what one flight carries differs", volume.SenderWindow),
		},
		Metrics: map[string]float64{
			"coalesced_tps": cTPS, "uncoalesced_tps": nTPS,
			"coalesced_ios": cIOs, "uncoalesced_ios": nIOs,
		},
	}, nil
}

// AblationFullPages quantifies §3.1's "what is written" argument: shipping
// full page images instead of redo deltas multiplies the bytes crossing
// the network per transaction.
func AblationFullPages(s Scale) (*Result, error) {
	w := window{rows: s.Rows, valueSize: 100, mix: workload.SysbenchWriteOnly(s.Rows),
		opts: workload.Options{Clients: s.Clients, Duration: s.Duration, Seed: 75}}
	run := func(full bool, seed int64) (tps, bytesPerTxn float64, err error) {
		var out sent
		res, err := measure(NewAurora, AuroraConfig{
			PGs: 4, CachePages: 4096, Net: benchNet(seed), Disk: disk.FastLocal(),
			Engine: engine.Config{FullPageWrites: full},
		}, w, writerSent(&out))
		return res.TPS(), ratio(float64(out.bytes), float64(res.Transactions)), err
	}
	fTPS, fBytes, err := run(true, 75)
	if err != nil {
		return nil, err
	}
	dTPS, dBytes, err := run(false, 76)
	if err != nil {
		return nil, err
	}

	t := &Table{Header: []string{"Log contents", "Transactions/sec", "Bytes/txn on wire"}}
	t.Add("full page images", fmt.Sprintf("%.0f", fTPS), fmt.Sprintf("%.0f", fBytes))
	t.Add("redo deltas (Aurora)", fmt.Sprintf("%.0f", dTPS), fmt.Sprintf("%.0f", dBytes))
	return &Result{
		ID: "Ablation: redo vs pages", Title: "Shipping redo deltas vs full pages (§3.1)",
		Table: t,
		Metrics: map[string]float64{
			"delta_bytes_per_txn": dBytes,
			"page_bytes_per_txn":  fBytes,
			"amplification":       ratio(fBytes, dBytes),
		},
	}, nil
}

// AblationMaterialize quantifies §3.2's background materialization: a page
// with a long delta chain is expensive to read until the storage node
// coalesces it; materialization is purely an optimization — the content is
// identical either way.
func AblationMaterialize(Scale) (*Result, error) {
	au, err := NewAurora(AuroraConfig{PGs: 1, CachePages: 64, Net: benchNet(77), Disk: disk.FastLocal()})
	if err != nil {
		return nil, err
	}
	defer au.Close()
	// Hammer one row so a single page accumulates a long chain.
	key := []byte("hot-row")
	const updates = 400
	for i := 0; i < updates; i++ {
		if err := au.DB.Put(key, []byte(fmt.Sprintf("v%06d", i))); err != nil {
			return nil, err
		}
	}
	node := au.Fleet.Node(0, 0)
	var hotPage core.PageID
	var longest int
	for p := core.PageID(0); p < 16; p++ {
		if l := node.ChainLength(p); l > longest {
			longest = l
			hotPage = p
		}
	}

	readOnce := func() (time.Duration, error) {
		au.DB.Cache().Invalidate()
		start := time.Now()
		_, _, err := au.DB.Get(key)
		return time.Since(start), err
	}
	before, err := readOnce()
	if err != nil {
		return nil, err
	}
	chainBefore := node.ChainLength(hotPage)
	// Let every replica materialize.
	coalesced := 0
	for i := 0; i < 6; i++ {
		coalesced += au.Fleet.Node(0, i).CoalesceOnce()
	}
	after, err := readOnce()
	if err != nil {
		return nil, err
	}
	chainAfter := node.ChainLength(hotPage)

	t := &Table{Header: []string{"State", "Hot page chain length", "Cold read latency"}}
	t.Add("before materialization", fmt.Sprintf("%d", chainBefore), fmtDur(before))
	t.Add("after materialization", fmt.Sprintf("%d", chainAfter), fmtDur(after))
	return &Result{
		ID: "Ablation: materialization", Title: "Background page materialization vs on-demand apply (§3.2)",
		Table: t,
		Metrics: map[string]float64{
			"chain_before":    float64(chainBefore),
			"chain_after":     float64(chainAfter),
			"pages_coalesced": float64(coalesced),
		},
		Notes: []string{
			"materialization is optional for correctness: the log is the database",
		},
	}, nil
}
