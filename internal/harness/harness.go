// Package harness regenerates every table and figure from the paper's
// evaluation (§3.2 Table 1, §6.1 Figures 6–7 and Tables 2–5, §6.2 Figures
// 8–11, §7.4 Figure 12), plus the §4.3 recovery claim, the §2 durability
// model, and ablations of the design choices DESIGN.md calls out. Each
// experiment builds fresh Aurora and/or MySQL-baseline stacks on the
// simulated substrate, drives identical workloads against them, and prints
// rows shaped like the paper's. Absolute numbers differ (the substrate is
// a scaled-down simulator); the comparisons' shape is the reproduction
// target.
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
// metrics the tests assert shape on.
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
}

// NewAurora builds the stack.
func NewAurora(cfg AuroraConfig) (*AuroraStack, error) {
	if cfg.Name == "" {
		cfg.Name = "au"
	}
	if cfg.PGs <= 0 {
		cfg.PGs = 4
	}
	net := netsim.New(cfg.Net)
	store := objstore.New()
	fleet, err := volume.NewFleet(volume.FleetConfig{
		Name: cfg.Name, Geometry: core.UniformGeometry(cfg.PGs), Net: net, Disk: cfg.Disk, Store: store,
		Quorum: cfg.Quorum,
	})
	if err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	ecfg.CachePages = cfg.CachePages
	vol := volume.Bootstrap(fleet, volume.ClientConfig{
		WriterNode: netsim.NodeID(cfg.Name + "-writer"), WriterAZ: 0, NoCoalesce: cfg.NoCoalesce,
	})
	db, err := engine.Create(vol, ecfg)
	if err != nil {
		vol.Close()
		return nil, err
	}
	if cfg.Background {
		fleet.Start()
	}
	return &AuroraStack{Net: net, Fleet: fleet, Vol: vol, DB: db, Store: store}, nil
}

// WriterNode returns the writer's network identity.
func (s *AuroraStack) WriterNode() netsim.NodeID { return netsim.NodeID("au-writer") }

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
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// Registry maps experiment ids to runners (used by cmd/aurora-bench).
var Registry = map[string]func(Scale) *Result{
	"table1":               Table1,
	"fig6":                 Figure6,
	"fig7":                 Figure7,
	"table2":               Table2,
	"table3":               Table3,
	"table4":               Table4,
	"table5":               Table5,
	"fig8":                 Figure8,
	"fig9":                 Figure9,
	"fig10":                Figure10,
	"fig11":                Figure11,
	"fig12":                Figure12,
	"recovery":             RecoveryExperiment,
	"durability":           DurabilityExperiment,
	"ablation-sync-commit": AblationSyncCommit,
	"ablation-coalesce":    AblationCoalesce,
	"ablation-full-pages":  AblationFullPages,
	"ablation-materialize": AblationMaterialize,
	"latency":              LatencyAttribution,
	"grow":                 GrowExperiment,
	"logsplit":             LogSplitExperiment,
	"tenants":              TenantsExperiment,
	"autotune":             AutotuneExperiment,
}

// Order is the canonical experiment order for "run everything".
var Order = []string{
	"table1", "fig6", "fig7", "table2", "table3", "table4", "table5",
	"fig8", "fig9", "fig10", "fig11", "fig12", "recovery", "durability",
	"ablation-sync-commit", "ablation-coalesce", "ablation-full-pages",
	"ablation-materialize", "latency", "grow", "logsplit", "tenants",
	"autotune",
}
