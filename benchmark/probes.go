package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"aurora/internal/btree"
	"aurora/internal/bufcache"
	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/page"
	"aurora/internal/storage"
	"aurora/internal/txn"
	"aurora/internal/volume"
)

// A probe calls one layer's public functions directly, single-threaded, on
// inputs generated from the seed, and times them. Probes run once, after
// the traced window, so a layer's cost can be read apart from the others'.

type probes struct {
	rng *rand.Rand
	div int
	out map[string]value
}

func (p *probes) n(full int) int {
	if n := full / p.div; n > 16 {
		return n
	}
	return 16
}

func (p *probes) put(name, unit string, v float64) { p.out[name] = value{Value: v, Unit: unit} }

// perOp times n calls of f and returns the mean in ns.
func perOp(n int, f func(i int) error) (float64, error) {
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t)) / float64(n), nil
}

// eachOp times n calls of f one by one and returns the sorted times in µs.
func eachOp(n int, f func(i int) error) ([]float64, error) {
	us := make([]float64, n)
	for i := range us {
		t := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		us[i] = float64(time.Since(t)) / 1e3
	}
	sort.Float64s(us)
	return us, nil
}

func runProbes(seed int64, div int) (map[string]value, error) {
	p := &probes{rng: rand.New(rand.NewSource(seed)), div: div, out: make(map[string]value)}
	for _, probe := range []struct {
		layer string
		run   func() error
	}{
		{"txn", p.txn}, {"btree", p.btree}, {"bufcache", p.bufcache}, {"core", p.core},
		{"volume", p.volume}, {"netsim", p.netsim}, {"storage", p.storage},
		{"disk", p.disk}, {"page", p.page},
	} {
		if err := probe.run(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", probe.layer, err)
		}
	}
	return p.out, nil
}

func (p *probes) payload(n int) []byte {
	b := make([]byte, n)
	p.rng.Read(b)
	return b
}

func (p *probes) txn() error {
	lt := txn.NewLockTable(0)
	defer lt.Close()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = string(keyOf(p.rng.Intn(1 << 20)))
	}
	ns, err := perOp(p.n(200000), func(i int) error {
		id := uint64(i + 1)
		if err := lt.Acquire(id, keys[i%len(keys)]); err != nil {
			return err
		}
		lt.ReleaseAll(id)
		return nil
	})
	p.put("txn.acquire_release_ns", "ns", ns)
	return err
}

// memStore is an in-memory btree.Store that counts page fetches.
type memStore struct {
	pages   map[core.PageID]page.Page
	fetches int
}

func (s *memStore) Page(id core.PageID) (page.Page, error) {
	s.fetches++
	pg, ok := s.pages[id]
	if !ok {
		return nil, fmt.Errorf("page %d never written", id)
	}
	return pg, nil
}

func (s *memStore) FreshPage(id core.PageID) (page.Page, error) {
	pg := page.New(id)
	s.pages[id] = pg
	return pg, nil
}

func (p *probes) btree() error {
	store := &memStore{pages: make(map[core.PageID]page.Page)}
	tree, err := btree.Create(store, btree.NewRecorder())
	if err != nil {
		return err
	}
	n := p.n(20000)
	order := p.rng.Perm(n)
	val := p.payload(valueSize)
	// One recorder per Put, as the engine keeps one per commit: the
	// before-images it saves are part of a Put's cost.
	putNS, err := perOp(n, func(i int) error { return tree.Put(btree.NewRecorder(), keyOf(order[i]), val) })
	if err != nil {
		return err
	}
	store.fetches = 0
	getNS, err := perOp(n, func(i int) error {
		_, found, err := tree.Get(keyOf(order[n-1-i]))
		if err == nil && !found {
			err = fmt.Errorf("key %d lost", order[n-1-i])
		}
		return err
	})
	p.put("btree.put_ns", "ns", putNS)
	p.put("btree.get_ns", "ns", getNS)
	p.put("btree.pages_per_get", "count", float64(store.fetches)/float64(n))
	return err
}

func (p *probes) bufcache() error {
	const capacity = 1024
	c := bufcache.New(capacity, func() core.LSN { return math.MaxUint64 })
	pg := page.New(1)
	for id := 0; id < capacity; id++ {
		c.Put(core.PageID(id), pg)
		c.Unpin(core.PageID(id))
	}
	ids := make([]core.PageID, 4096)
	for i := range ids {
		ids[i] = core.PageID(p.rng.Intn(capacity))
	}
	hitNS, err := perOp(p.n(500000), func(i int) error {
		id := ids[i%len(ids)]
		if _, ok := c.Get(id); !ok {
			return fmt.Errorf("page %d not resident", id)
		}
		c.Unpin(id)
		return nil
	})
	if err != nil {
		return err
	}
	evictNS, _ := perOp(p.n(500000), func(i int) error {
		id := core.PageID(capacity + i)
		c.Put(id, pg)
		c.Unpin(id)
		return nil
	})
	p.put("bufcache.get_hit_ns", "ns", hitNS)
	p.put("bufcache.put_evict_ns", "ns", evictNS)
	return nil
}

// probeMTRs builds count MTRs of four 48-byte deltas each, over pages
// [0,pages) spread across pgs protection groups.
func (p *probes) probeMTRs(count, pages, pgs int) []*core.MTR {
	data := p.payload(48)
	ms := make([]*core.MTR, count)
	for i := range ms {
		m := &core.MTR{Txn: uint64(i + 1)}
		for j := 0; j < 4; j++ {
			id := p.rng.Intn(pages)
			m.AddDelta(core.PGID(id%pgs), core.PageID(id), uint32(p.rng.Intn(page.PayloadSize-48)), data)
		}
		ms[i] = m
	}
	return ms
}

func (p *probes) core() error {
	ctx := context.Background()
	alloc := core.NewAllocator(core.ZeroLSN, 0)
	f := core.NewFramer(alloc, nil)
	ms := p.probeMTRs(8, 256, 3)
	const records = 8 * 4
	frame := func(int) error {
		g, err := f.FrameGroup(ctx, ms)
		if err != nil {
			return err
		}
		alloc.AdvanceVDL(g.MaxCPL()) // keep the allocation window open
		g.Release()
		return nil
	}
	if _, err := perOp(8, frame); err != nil { // fill the framer's pools
		return err
	}
	n := p.n(20000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frameNS, err := perOp(n, frame)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)

	g, err := f.FrameGroup(ctx, ms)
	if err != nil {
		return err
	}
	defer g.Release()
	wire := 0
	for i := range g.Batches {
		wire += len(g.Batches[i].Wire)
	}
	decodeNS, err := perOp(n, func(int) error {
		for i := range g.Batches {
			v, _, err := core.ParseBatchView(g.Batches[i].Wire)
			if err != nil {
				return err
			}
			if err := v.Verify(); err != nil {
				return err
			}
			if err := v.EachRecord(func(*core.Record) bool { return true }); err != nil {
				return err
			}
		}
		return nil
	})
	p.put("core.frame_ns_per_record", "ns", frameNS/records)
	p.put("core.frame_allocs_per_group", "count", float64(after.Mallocs-before.Mallocs)/float64(n))
	p.put("core.decode_ns_per_record", "ns", decodeNS/records)
	p.put("core.wire_bytes_per_record", "B", float64(wire)/records)
	return err
}

func (p *probes) volume() error {
	ctx := context.Background()
	fleet, err := volume.NewFleet(volume.FleetConfig{Name: "probe", Geometry: core.UniformGeometry(4),
		Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal()})
	if err != nil {
		return err
	}
	c := volume.Bootstrap(fleet, volume.ClientConfig{WriterNode: "probe-writer"})
	defer c.Close()
	const pages = 256
	n := p.n(2000)
	ms := p.probeMTRs(n, pages, 1)
	written := make(map[core.PageID]bool)
	for _, m := range ms {
		for i := range m.Records {
			m.Records[i].PG = c.PGOf(m.Records[i].Page)
			written[m.Records[i].Page] = true
		}
	}
	writeUS, err := eachOp(n, func(i int) error {
		cpl, err := c.WriteMTR(ctx, ms[i])
		if err == nil {
			c.WaitDurable(cpl)
		}
		return err
	})
	if err != nil {
		return err
	}
	ids := make([]core.PageID, 0, len(written))
	for id := range written {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	readUS, err := eachOp(n, func(i int) error {
		_, _, err := c.ReadPage(ctx, ids[i%len(ids)])
		return err
	})
	p.put("volume.write_mtr_us_p50", "us", quantile(writeUS, 0.5))
	p.put("volume.read_page_us_p50", "us", quantile(readUS, 0.5))
	return err
}

// delayProbe is a timer calibration: what one simulated wait was asked to
// take and what the host delivered.
type delayProbe struct {
	RequestedUS float64 `json:"requested_us"`
	DeliveredUS float64 `json:"delivered_us"`
}

func (d delayProbe) ratio() float64 { return ratio(d.DeliveredUS, d.RequestedUS) }

// netDelay times a cross-AZ hop under the datacenter profile.
func netDelay(n int) (delayProbe, error) {
	cfg := netsim.Datacenter()
	net := netsim.New(cfg)
	net.AddNode("a", 0)
	net.AddNode("b", 1)
	us, err := eachOp(n, func(int) error { return net.Send(context.Background(), "a", "b", 128) })
	return delayProbe{RequestedUS: float64(cfg.CrossAZ) / 1e3, DeliveredUS: quantile(us, 0.5)}, err
}

// diskDelay times a 4 KB write on the NVMe profile.
func diskDelay(n int) (delayProbe, error) {
	cfg := disk.NVMe()
	d := disk.New(cfg)
	const size = 4096
	us, err := eachOp(n, func(int) error { return d.Write(size) })
	want := cfg.WriteLatency + time.Duration(size*int64(time.Second)/cfg.Bandwidth)
	return delayProbe{RequestedUS: float64(want) / 1e3, DeliveredUS: quantile(us, 0.5)}, err
}

func (p *probes) netsim() error {
	net := netsim.New(netsim.FastLocal())
	net.AddNode("a", 0)
	net.AddNode("b", 1)
	ctx := context.Background()
	ns, err := perOp(p.n(500000), func(int) error { return net.Send(ctx, "a", "b", 128) })
	if err != nil {
		return err
	}
	d, err := netDelay(p.n(200))
	p.put("netsim.send_overhead_ns", "ns", ns)
	p.put("netsim.delay_delivered_ratio", "ratio", d.ratio())
	return err
}

func (p *probes) disk() error {
	d, err := diskDelay(p.n(200))
	p.put("disk.delay_delivered_ratio", "ratio", d.ratio())
	return err
}

func (p *probes) storage() error {
	ctx := context.Background()
	net := netsim.New(netsim.FastLocal())
	store := objstore.New()
	nodes := make([]*storage.Node, 6)
	for i := range nodes {
		nodes[i] = storage.NewNode(storage.Config{
			Seg: core.SegmentID{PG: 0, Replica: uint8(i)}, Node: netsim.NodeID(fmt.Sprintf("probe-s%d", i)),
			AZ: netsim.AZ(i / 2), Net: net, Disk: disk.FastLocal(), Store: store,
		})
	}
	for _, n := range nodes {
		n.SetPeers(nodes)
	}
	node, peer := nodes[0], nodes[1]
	alloc := core.NewAllocator(core.ZeroLSN, 0)
	f := core.NewFramer(alloc, nil)
	// deliver frames one group of MTRs and ingests its single batch.
	deliver := func(ms []*core.MTR, to ...*storage.Node) (time.Duration, error) {
		g, err := f.FrameGroup(ctx, ms)
		if err != nil {
			return 0, err
		}
		defer g.Release()
		alloc.AdvanceVDL(g.MaxCPL())
		flight := []core.BatchView{g.Batches[0].View()}
		var took time.Duration
		for _, n := range to {
			t := time.Now()
			_, res, err := n.Ingest(ctx, flight, core.ZeroLSN, core.ZeroLSN, nil)
			took = time.Since(t)
			if err == nil {
				err = res[0].Err
			}
			if err != nil {
				return 0, err
			}
		}
		return took, nil
	}

	// A page with a chain of exactly eight deltas.
	const chainPage = 1 << 20
	chain := &core.MTR{Txn: 1}
	for j := 0; j < 8; j++ {
		chain.AddDelta(0, chainPage, uint32(64*j), p.payload(48))
	}
	if _, err := deliver([]*core.MTR{chain}, node, peer); err != nil {
		return err
	}
	readNS, err := perOp(p.n(20000), func(int) error {
		_, err := node.ReadPage(ctx, chainPage, node.SCL(), 0)
		return err
	})
	if err != nil {
		return err
	}

	// Ingest: groups of 8 MTRs x 4 deltas over 256 pages, one batch each.
	const pages, records = 256, 8 * 4
	groups := p.n(1024)
	var ingest time.Duration
	for i := 0; i < groups; i++ {
		took, err := deliver(p.probeMTRs(8, pages, 1), peer, node)
		if err != nil {
			return err
		}
		ingest += took
	}
	p.put("storage.read_page_us_chain8", "us", readNS/1e3)
	p.put("storage.ingest_us_per_batch", "us", float64(ingest)/1e3/float64(groups))
	p.put("storage.ingest_ns_per_record", "ns", float64(ingest)/float64(groups*records))

	// Gossip: the peer holds one group the node has not seen.
	if _, err := deliver(p.probeMTRs(8, pages, 1), peer); err != nil {
		return err
	}
	t := time.Now()
	if pulled := node.GossipOnce(); pulled != records {
		return fmt.Errorf("gossip pulled %d records, want %d", pulled, records)
	}
	p.put("storage.gossip_pass_us", "us", float64(time.Since(t))/1e3)

	// Coalesce: tell the node everything is durable and no reader is
	// behind, then fold every chain into its base image.
	scl := node.SCL()
	if _, _, err := node.Ingest(ctx, nil, scl, scl, nil); err != nil {
		return err
	}
	t = time.Now()
	advanced := node.CoalesceOnce()
	if advanced == 0 {
		return fmt.Errorf("coalesce advanced no page")
	}
	p.put("storage.coalesce_us_per_page", "us", float64(time.Since(t))/1e3/float64(advanced))

	_, _, bytesBefore := store.Stats()
	t = time.Now()
	if node.BackupNow() == 0 {
		return fmt.Errorf("backup stored nothing")
	}
	p.put("storage.backup_pass_ms", "ms", float64(time.Since(t))/1e6)
	_, _, bytesAfter := store.Stats()
	p.put("storage.backup_kb_per_pass", "KB", float64(bytesAfter-bytesBefore)/1024)

	t = time.Now()
	if bad := node.ScrubOnce(); bad != 0 {
		return fmt.Errorf("scrub found %d corrupt pages", bad)
	}
	p.put("storage.scrub_pass_ms", "ms", float64(time.Since(t))/1e6)
	return nil
}

func (p *probes) page() error {
	base := page.New(1)
	chain := make([]*core.Record, 8)
	for i := range chain {
		chain[i] = &core.Record{Type: core.RecPageDelta, Page: 1, LSN: core.LSN(i + 1),
			Offset: uint32(64 * i), Data: p.payload(48)}
	}
	n := p.n(200000)
	matNS, err := perOp(n, func(int) error {
		_, err := page.Materialize(1, base, chain, 8)
		return err
	})
	if err != nil {
		return err
	}
	pg := page.New(1)
	rec := core.Record{Type: core.RecPageDelta, Page: 1, Offset: 128, Data: p.payload(48)}
	applyNS, err := perOp(n, func(i int) error {
		rec.LSN = core.LSN(i + 1)
		return pg.Apply(&rec)
	})
	if err != nil {
		return err
	}
	// A row update's footprint: a 100-byte value and an 8-byte slot.
	before := p.payload(page.PayloadSize)
	after := append([]byte(nil), before...)
	copy(after[1000:], p.payload(valueSize))
	copy(after[3000:], p.payload(8))
	diffNS, err := perOp(n, func(int) error {
		if len(page.Diff(before, after, 24)) == 0 {
			return fmt.Errorf("diff found no change")
		}
		return nil
	})
	p.put("page.materialize_ns_chain8", "ns", matNS)
	p.put("page.apply_ns", "ns", applyNS)
	p.put("page.diff_ns", "ns", diffNS)
	return err
}
