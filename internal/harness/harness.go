// Package harness regenerates every table and figure from the paper's
// evaluation (§3.2 Table 1, §6.1 Figures 6–7 and Tables 2–5, §6.2 Figures
// 8–11, §7.4 Figure 12), plus the §4.3 recovery claim, the §2 durability
// model, and ablations of the design choices DESIGN.md calls out. Each
// experiment builds fresh Aurora and/or MySQL-baseline stacks on the
// simulated substrate, drives identical workloads against them, and prints
// rows shaped like the paper's. Absolute numbers differ (the substrate is
// a scaled-down simulator); the comparisons' shape is the reproduction
// target, and Experiments holds each experiment with the shape it must have.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/engine"
	"aurora/internal/mysql"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/quorum"
	"aurora/internal/volume"
	"aurora/internal/workload"
)

// Scale sizes an experiment run. Quick keeps the full test suite fast;
// Full is what cmd/aurora-bench uses for the recorded results.
type Scale struct {
	Duration time.Duration // measured window per configuration
	Rows     int           // base table rows
	Clients  int           // base concurrency
}

// Quick returns the CI-sized scale.
func Quick() Scale { return Scale{Duration: 250 * time.Millisecond, Rows: 1200, Clients: 16} }

// Full returns the scale used for recorded EXPERIMENTS.md results.
func Full() Scale { return Scale{Duration: 1500 * time.Millisecond, Rows: 6000, Clients: 32} }

// Result is one experiment's output: a printable table plus named scalar
// metrics its shape is checked on.
type Result struct {
	ID      string
	Title   string
	Table   *Table
	Metrics map[string]float64
	Notes   []string
	// Raw is preformatted supplemental output (attribution tables,
	// rendered exemplar trace trees) printed verbatim after the table.
	Raw string `json:",omitempty"`
}

// Print renders the result.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s — %s ==\n", r.ID, r.Title)
	r.Table.Print(w)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if r.Raw != "" {
		fmt.Fprintf(w, "\n%s", r.Raw)
	}
}

// Table is a simple aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
}

// AuroraConfig configures an Aurora stack for one experiment.
type AuroraConfig struct {
	Name       string
	PGs        int
	CachePages int
	Net        netsim.Config
	Disk       disk.Config
	Engine     engine.Config
	NoCoalesce bool
	Background bool          // start storage-node background loops
	Quorum     quorum.Config // zero value selects quorum.Aurora()
}

// AuroraStack is a complete Aurora deployment for one experiment.
type AuroraStack struct {
	Net   *netsim.Network
	Fleet *volume.Fleet
	Vol   *volume.Client
	DB    *engine.DB
	Store *objstore.Store
	name  string
}

// NewAurora builds the stack.
func NewAurora(cfg AuroraConfig) (*AuroraStack, error) {
	if cfg.Name == "" {
		cfg.Name = "au"
	}
	if cfg.PGs <= 0 {
		cfg.PGs = 4
	}
	s := &AuroraStack{Net: netsim.New(cfg.Net), Store: objstore.New(), name: cfg.Name}
	fleet, err := volume.NewFleet(volume.FleetConfig{
		Name: cfg.Name, Geometry: core.UniformGeometry(cfg.PGs), Net: s.Net, Disk: cfg.Disk, Store: s.Store,
		Quorum: cfg.Quorum,
	})
	if err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	ecfg.CachePages = cfg.CachePages
	s.Fleet = fleet
	s.Vol = volume.Bootstrap(fleet, volume.ClientConfig{
		WriterNode: s.WriterNode(), WriterAZ: 0, NoCoalesce: cfg.NoCoalesce,
	})
	if s.DB, err = engine.Create(s.Vol, ecfg); err != nil {
		s.Vol.Close()
		return nil, err
	}
	if cfg.Background {
		fleet.Start()
	}
	return s, nil
}

// WriterNode returns the writer's network identity.
func (s *AuroraStack) WriterNode() netsim.NodeID { return netsim.NodeID(s.name + "-writer") }

// WL adapts the stack to the workload driver.
func (s *AuroraStack) WL() workload.DB {
	return workload.Of(s.DB.Begin)
}

// Close tears the stack down.
func (s *AuroraStack) Close() {
	s.DB.Close()
	s.Fleet.Stop()
}

// MySQLConfig configures a baseline stack.
type MySQLConfig struct {
	Mirrored    bool
	CachePages  int
	Net         netsim.Config
	Disk        disk.Config
	Checkpoint  int
	GroupMax    int
	LockTimeout time.Duration
}

// MySQLStack is a baseline deployment.
type MySQLStack struct {
	Net *netsim.Network
	DB  *mysql.DB
}

// NewMySQL builds the baseline stack.
func NewMySQL(cfg MySQLConfig) (*MySQLStack, error) {
	net := netsim.New(cfg.Net)
	db, err := mysql.New(mysql.Config{
		Instance: "mysql", AZ: 0, Mirrored: cfg.Mirrored, StandbyAZ: 1,
		Net: net, Disk: cfg.Disk, CachePages: cfg.CachePages,
		CheckpointDirtyPages: cfg.Checkpoint, GroupCommitMax: cfg.GroupMax,
		LockTimeout: cfg.LockTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &MySQLStack{Net: net, DB: db}, nil
}

// WL adapts the stack to the workload driver.
func (s *MySQLStack) WL() workload.DB {
	return workload.Of(s.DB.Begin)
}

// Close tears the stack down.
func (s *MySQLStack) Close() { s.DB.Close() }

// stack is either engine's deployment, as the measuring step drives it.
type stack interface {
	WL() workload.DB
	Close()
}

// loaded builds a stack and loads rows rows of valueSize-byte values into
// it; the caller closes it.
func loaded[C any, S stack](build func(C) (S, error), cfg C, rows, valueSize int) (S, error) {
	st, err := build(cfg)
	if err != nil {
		return st, err
	}
	if err := workload.Load(st.WL(), rows, valueSize); err != nil {
		st.Close()
		var none S
		return none, fmt.Errorf("load %d rows: %w", rows, err)
	}
	return st, nil
}

// window is the load one configuration is measured under: rows rows of
// valueSize-byte values loaded first, then mix driven by opts — through
// wrap, when set (the instance CPU model, the thread-per-connection toll).
type window struct {
	rows, valueSize int
	mix             workload.Mix
	opts            workload.Options
	wrap            func(workload.DB) workload.DB
}

// measure is the measuring step every experiment's configurations share:
// build and load the stack, run the window on it and close it. around, when
// set, sees the loaded stack just before the window and returns what to do
// with it just after, before the close.
func measure[C any, S stack](build func(C) (S, error), cfg C, w window, around func(S) func()) (workload.Result, error) {
	st, err := loaded(build, cfg, w.rows, w.valueSize)
	if err != nil {
		return workload.Result{}, err
	}
	defer st.Close()
	after := func() {}
	if around != nil {
		after = around(st)
	}
	db := st.WL()
	if w.wrap != nil {
		db = w.wrap(db)
	}
	res := workload.Run(db, w.mix, w.opts)
	after()
	return res, nil
}

// sent is what an Aurora writer put on the network during one window.
type sent struct{ msgs, bytes uint64 }

// writerSent zeroes the network's counters before the window and reads
// into out what the writer sent during it.
func writerSent(out *sent) func(*AuroraStack) func() {
	return func(au *AuroraStack) func() {
		au.Net.ResetStats()
		return func() { out.msgs, out.bytes, _, _, _ = au.Net.NodeStats(au.WriterNode()) }
	}
}

// benchNet returns the standard scaled-down datacenter network for
// experiments (deterministic seed per experiment id).
func benchNet(seed int64) netsim.Config {
	cfg := netsim.Datacenter()
	cfg.Seed = seed
	return cfg
}

// fmtF renders a float with sensible precision.
func fmtF(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// fmtDur renders a duration in ms with two decimals.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", ms(d))
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
