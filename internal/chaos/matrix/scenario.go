package matrix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aurora/internal/chaos"
	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/quorum"
	"aurora/internal/storage"
	"aurora/internal/volume"
)

// FaultKind names one axis of the scenario matrix: what breaks.
type FaultKind string

const (
	FaultCrash         FaultKind = "crash"          // storage node crash + restart
	FaultWipeRepair    FaultKind = "wipe-repair"    // segment disk destroyed, re-replicated on heal
	FaultAZOutage      FaultKind = "az-down"        // whole availability zone dark
	FaultPacketLoss    FaultKind = "loss"           // 10% of every message silently dropped
	FaultGraySlow      FaultKind = "gray-slow"      // alive-but-stalling replica (gray failure)
	FaultCorruptPage   FaultKind = "corrupt"        // bit flips in a materialized base image
	FaultGrow          FaultKind = "grow"           // live volume growth + rebalancing mid-traffic
	FaultBackup        FaultKind = "backup"         // backup sweep mid-run, PITR verified after
	FaultPageLag       FaultKind = "pagestore-lag"  // log/page split: feed paused, lagging page replica crashed
	FaultNoisyNeighbor FaultKind = "noisy-neighbor" // co-tenant floods the shared hosts; quiet tenant's invariants must hold
)

// StressKind names the other axis: how the workload leans on the fault.
type StressKind string

const (
	StressCycles     StressKind = "cycles"     // rapid inject/heal/inject windows
	StressCommitters StressKind = "committers" // many concurrent committing clients
	StressBigTx      StressKind = "bigtx"      // large multi-key, multi-page transactions
	StressDeadline   StressKind = "deadline"   // tight CommitCtx deadlines (detach storms)
)

// Faults and Stressors enumerate the axes in matrix order.
var (
	Faults = []FaultKind{FaultCrash, FaultWipeRepair, FaultAZOutage, FaultPacketLoss,
		FaultGraySlow, FaultCorruptPage, FaultGrow, FaultBackup, FaultPageLag,
		FaultNoisyNeighbor}
	Stressors = []StressKind{StressCycles, StressCommitters, StressBigTx, StressDeadline}
)

// Scenario is one cell draw from the matrix: a fault kind crossed with a
// stressor, plus the derived seed that makes its schedule and payloads
// replayable.
type Scenario struct {
	Index  int
	Fault  FaultKind
	Stress StressKind
	Seed   int64
}

// Name is the stable scenario identifier used for -only filters and the
// results table.
func (s Scenario) Name() string { return fmt.Sprintf("%s/%s", s.Fault, s.Stress) }

// Plan draws count scenarios from the matrix: the full cross product is
// shuffled by the master seed, then cycled if count exceeds one sweep. Each
// scenario's own seed is derived from the master seed and its index, so
// replaying with the same -seed and -count reproduces every schedule and
// payload, and -only narrows to one cell without changing the draw.
func Plan(masterSeed int64, count int) []Scenario {
	cells := make([]Scenario, 0, len(Faults)*len(Stressors))
	for _, f := range Faults {
		for _, st := range Stressors {
			cells = append(cells, Scenario{Fault: f, Stress: st})
		}
	}
	rng := rand.New(rand.NewSource(masterSeed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	out := make([]Scenario, count)
	for i := range out {
		out[i] = cells[i%len(cells)]
		out[i].Index = i
		out[i].Seed = masterSeed + int64(i)*1315423911 // odd stride: distinct per-index streams
	}
	return out
}

// stack is one scenario's private cluster: its own simulated network,
// 2-PG × 6-replica fleet, writer, and engine. Backup scenarios also get an
// object store for the restore leg; noisy-neighbor scenarios get a shared
// host pool and a second, hostile tenant for the fault to flood.
type stack struct {
	name  string
	net   *netsim.Network
	store *objstore.Store
	fleet *volume.Fleet
	vol   *volume.Client
	db    *engine.DB

	pool     *storage.Pool
	hotFleet *volume.Fleet
	hotVol   *volume.Client
	hotDB    *engine.DB
}

func newStack(sc Scenario) (*stack, error) {
	st := &stack{
		name: fmt.Sprintf("mx%02d", sc.Index),
		net:  netsim.New(netsim.FastLocal()),
	}
	cfg := volume.FleetConfig{
		Name:     st.name,
		Geometry: core.UniformGeometry(2),
		Net:      st.net,
		Disk:     disk.FastLocal(),
	}
	needsPool := sc.Fault == FaultNoisyNeighbor
	if needsPool {
		// Both tenants share one 9-host pool with per-tenant QoS: the cap is
		// far above the quiet workload's needs, so only the flood is shaped.
		st.pool = storage.NewPool(storage.PoolConfig{
			Name: st.name + "p", Hosts: 9, Net: st.net, Disk: disk.FastLocal(),
			QoS: storage.QoSConfig{IngestBytesPerSec: 4 << 20},
		})
		cfg.Vol, cfg.Pool = 1, st.pool
	}
	if sc.Fault == FaultBackup {
		// Continuous backups would blur the ledger's restore window: only
		// the scenario's explicit bracketed sweeps may reach the store.
		st.store = objstore.New()
		cfg.Store = st.store
		cfg.BackupInterval = time.Hour
	}
	if sc.Fault == FaultPageLag {
		// The pagestore-lag fault only exists under the log/page role split:
		// its cluster runs the 3+3 mix instead of the classic 4/6.
		cfg.Quorum = quorum.TaurusMix()
	}
	f, err := volume.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	st.fleet = f
	st.vol = volume.Bootstrap(f, volume.ClientConfig{WriterNode: netsim.NodeID(st.name + "-writer"), WriterAZ: 0})
	// A small cache keeps snapshot readers going to the storage fleet for
	// truth instead of serving everything warm from the writer's memory.
	db, err := engine.Create(st.vol, engine.Config{CachePages: 128})
	if err != nil {
		st.vol.Close()
		return nil, err
	}
	st.db = db
	f.Start()
	if needsPool {
		hf, err := volume.NewFleet(volume.FleetConfig{
			Name: st.name + "hot", Vol: 2, Pool: st.pool,
			Geometry: core.UniformGeometry(2), Net: st.net, Disk: disk.FastLocal(),
		})
		if err != nil {
			st.teardown()
			return nil, err
		}
		st.hotFleet = hf
		st.hotVol = volume.Bootstrap(hf, volume.ClientConfig{WriterNode: netsim.NodeID(st.name + "hot-writer"), WriterAZ: 0})
		hdb, err := engine.Create(st.hotVol, engine.Config{CachePages: 128})
		if err != nil {
			st.hotVol.Close()
			hf.Stop()
			st.hotFleet = nil
			st.teardown()
			return nil, err
		}
		st.hotDB = hdb
		hf.Start()
	}
	return st, nil
}

func (st *stack) teardown() {
	if st.hotDB != nil {
		st.hotDB.Close()
		st.hotFleet.Stop()
	}
	st.db.Close()
	st.fleet.Stop()
}

// window brackets one backup sweep in ledger sequence numbers: s0 at sweep
// start, asOf stamped at sweep end, s1 right after. VerifyRestored judges
// the restored bytes against it.
type window struct {
	s0, s1 uint64
	asOf   time.Time
}

// buildTimeline lays the scenario's fault onto tick offsets. The cycles
// stressor turns one long window into three rapid inject/heal/inject
// windows — each with a freshly drawn fault instance, so a cycling crash
// can hit a different replica every window.
func buildTimeline(sc Scenario, st *stack, led *Ledger, rng *rand.Rand, windows *[]window) *chaos.Timeline {
	if sc.Stress == StressCycles {
		steps := make([]chaos.Step, 0, 3)
		for c := 0; c < 3; c++ {
			steps = append(steps, chaos.Step{Start: 2 + c*3, Duration: 1, Fault: makeFault(sc.Fault, st, led, rng, windows)})
		}
		return &chaos.Timeline{Steps: steps}
	}
	return &chaos.Timeline{Steps: []chaos.Step{{Start: 2, Duration: 6, Fault: makeFault(sc.Fault, st, led, rng, windows)}}}
}

// makeFault draws one concrete fault instance (target node, AZ, page) from
// the scenario's rng.
func makeFault(kind FaultKind, st *stack, led *Ledger, rng *rand.Rand, windows *[]window) chaos.Fault {
	pg := core.PGID(rng.Intn(st.fleet.PGs()))
	replica := rng.Intn(6)
	switch kind {
	case FaultCrash:
		return chaos.CrashNode(st.fleet, pg, replica)
	case FaultWipeRepair:
		return chaos.WipeAndRepairNode(st.fleet, pg, replica)
	case FaultAZOutage:
		return chaos.AZOutage(st.net, netsim.AZ(1+rng.Intn(2))) // never the writer's AZ
	case FaultPacketLoss:
		return chaos.PacketLoss(st.net, 0.10)
	case FaultGraySlow:
		// A same-AZ replica: the preferred read target without
		// health-ordered hedging, so the stall actually lands on the path.
		slow := st.fleet.Node(pg, rng.Intn(2))
		return chaos.GraySlowNode(st.net, slow.NodeID(), chaos.GraySlowDelay())
	case FaultCorruptPage:
		return corruptFault(st, pg, replica)
	case FaultGrow:
		return growFault(st.vol)
	case FaultBackup:
		return backupFault(st, led, windows)
	case FaultPageLag:
		return pageLagFault(st, pg, rng)
	case FaultNoisyNeighbor:
		return noisyNeighborFault(st)
	}
	panic("matrix: unknown fault kind " + string(kind))
}

// noisyNeighborFault floods the co-tenant sharing the quiet tenant's host
// pool with big multi-page commits for the fault window. The per-tenant QoS
// on every shared host must contain the blast: the quiet tenant's ledger,
// VDL and recovery invariants are judged exactly as in every other
// scenario, with no allowance for the neighbor. Heal stops the flooders and
// waits them out, so the goroutine-leak check also covers this fault.
func noisyNeighborFault(st *stack) chaos.Fault {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	return chaos.Fault{
		Name: "co-tenant bigtx flood",
		Inject: func(context.Context) {
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					val := bytes.Repeat([]byte{0xbb}, 900)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						opCtx, cancel := context.WithTimeout(context.Background(), chaos.Scaled(3*time.Second))
						tx := st.hotDB.BeginCtx(opCtx)
						ok := true
						for k := 0; k < 4; k++ {
							if err := tx.Put([]byte(fmt.Sprintf("hot%d-k%d", g, k)), val); err != nil {
								tx.Abort()
								ok = false
								break
							}
						}
						if ok {
							_ = tx.CommitCtx(opCtx) // throttled/rejected commits are the point
						}
						cancel()
					}
				}(g)
			}
		},
		Heal: func(context.Context) error {
			close(stop)
			wg.Wait()
			return nil
		},
	}
}

// pageLagFault exercises the split's worst read-path case: the log→page
// feed is paused on every page replica of the victim PG (so the whole page
// tier goes stale while commits keep landing on the log tier), then one of
// the lagging page replicas crashes outright. Reads must hedge to the
// surviving page replicas, which replay the log at read time; acked commits
// never depend on the page tier, so none may be lost. Heal restarts the
// victim, resumes the feeds, and lets the background pull re-converge the
// tier.
func pageLagFault(st *stack, pg core.PGID, rng *rand.Rand) chaos.Fault {
	q := st.fleet.Quorum()
	victim := st.fleet.Node(pg, q.LogV+rng.Intn(q.PageV()))
	pageNodes := func() []*storage.Node {
		var out []*storage.Node
		for _, n := range st.fleet.Replicas(pg) {
			if n.Role() == core.RolePage {
				out = append(out, n)
			}
		}
		return out
	}
	return chaos.Fault{
		Name: fmt.Sprintf("pagestore lag, crash %s", victim.NodeID()),
		Inject: func(context.Context) {
			for _, n := range pageNodes() {
				n.PauseFeed(true)
			}
			victim.Crash()
		},
		Heal: func(context.Context) error {
			victim.Restart()
			for _, n := range pageNodes() {
				n.PauseFeed(false)
			}
			storage.SyncGroup(st.fleet.Replicas(pg))
			return nil
		},
	}
}

// corruptFault flips bits in whatever base image the victim has
// materialized (coalescing first so one exists). The read-path CRC gate
// must refuse the bad image — hedging serves a peer — until the scrubber
// repairs it on heal.
func corruptFault(st *stack, pg core.PGID, replica int) chaos.Fault {
	n := st.fleet.Node(pg, replica)
	return chaos.Fault{
		Name: fmt.Sprintf("corrupt base on %s", n.NodeID()),
		Inject: func(context.Context) {
			n.CoalesceOnce()
			for p := core.PageID(0); p < 64; p++ {
				if n.CorruptPage(p) {
					return
				}
			}
		},
		Heal: func(context.Context) error {
			n.ScrubOnce()
			return nil
		},
	}
}

// growFault starts a live volume growth under traffic; healing waits for
// the rebalance to finish. A second inject while one is running (cycles
// stressor) gets ErrGrowthInProgress, which is the documented benign
// answer, not a failure.
func growFault(vol *volume.Client) chaos.Fault {
	done := make(chan error, 1)
	return chaos.Fault{
		Name: "grow +1 PG",
		Inject: func(context.Context) {
			go func() {
				_, err := vol.Grow(1)
				done <- err
			}()
		},
		Heal: func(ctx context.Context) error {
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, volume.ErrGrowthInProgress) {
					return err
				}
				return nil
			case <-time.After(chaos.Scaled(5 * time.Second)):
				return errors.New("growth did not complete")
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
}

// backupFault snapshots every segment to the object store mid-run,
// bracketing the sweep with ledger marks. Ticks run between workload
// rounds (no commits in flight), so the marks are clean cuts; the restore
// leg after the scenario replays the volume as of the sweep and holds the
// bytes to the window rule.
func backupFault(st *stack, led *Ledger, windows *[]window) chaos.Fault {
	return chaos.Fault{
		Name: "backup sweep",
		Inject: func(context.Context) {
			s0 := led.Mark()
			for g := 0; g < st.fleet.PGs(); g++ {
				for _, n := range st.fleet.Replicas(core.PGID(g)) {
					n.BackupNow()
				}
			}
			*windows = append(*windows, window{s0: s0, s1: led.Mark(), asOf: time.Now()})
		},
		Heal: func(context.Context) error { return nil },
	}
}
