package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// value is one reported number. Slices holds the values it was chosen
// among (one per slice of the window, or per repetition), so a reader can
// see the run's own spread.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Slices  []float64 `json:"slices,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// detail is everything one pass of one workload reports.
type detail struct {
	Workload         string            `json:"workload"`
	Why              string            `json:"why"`
	Trace            int               `json:"trace"`
	Seed             int64             `json:"seed"`
	WindowSeconds    float64           `json:"window_seconds"`
	SliceSeconds     float64           `json:"slice_seconds"`
	Clients          int               `json:"clients"`
	Rows             int               `json:"rows"`
	Correct          bool              `json:"correct"`
	Attempted        uint64            `json:"attempted"`
	Failed           uint64            `json:"failed"`
	FailedTxns       uint64            `json:"failed_txns"`
	LedgerMismatches uint64            `json:"ledger_mismatches"`
	FirstErrors      map[string]string `json:"first_errors,omitempty"`
	SpanFile         string            `json:"span_file,omitempty"`
	Metrics          map[string]value  `json:"metrics"`
}

func newDetail(s *spec, trace int, seed int64, p plan) *detail {
	return &detail{Workload: s.name, Why: s.why, Trace: trace, Seed: seed,
		WindowSeconds: p.window.Seconds(), SliceSeconds: p.slice.Seconds(), Clients: clientCount(),
		Rows: s.rows / p.rowsDiv, Metrics: make(map[string]value)}
}

// defs returns the metric list a pass must report.
func defs(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// check confirms the pass reported exactly its metric list, each finite.
func (d *detail) check() error {
	list := defs(d.Trace)
	for _, def := range list {
		v, ok := d.Metrics[def.name]
		if !ok {
			return fmt.Errorf("%s: metric %s not reported", d.Workload, def.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", d.Workload, def.name, v.Value)
		}
		if v.Unit != def.unit {
			return fmt.Errorf("%s: metric %s has unit %q, want %q", d.Workload, def.name, v.Unit, def.unit)
		}
	}
	if len(d.Metrics) != len(list) {
		return fmt.Errorf("%s: %d metrics reported, %d defined", d.Workload, len(d.Metrics), len(list))
	}
	return nil
}

// resultLine is the one JSON object the driver reads from the last line of
// standard output.
func (d *detail) resultLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, make(map[string]mv, len(d.Metrics))}
	for name, v := range d.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	return json.Marshal(out)
}

// print lists every metric by name with its unit.
func (d *detail) print(w io.Writer) {
	pass := "measured"
	if d.Trace == 1 {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass, seed %d, %d clients, %d rows, %.1f s window)\n",
		d.Workload, pass, d.Seed, d.Clients, d.Rows, d.WindowSeconds)
	for _, def := range defs(d.Trace) {
		v := d.Metrics[def.name]
		line := fmt.Sprintf("  %-36s %14.4f %-6s", def.name, v.Value, v.Unit)
		if len(v.Slices) > 0 {
			s := append([]float64(nil), v.Slices...)
			sort.Float64s(s)
			line += fmt.Sprintf("  [%.4g .. %.4g .. %.4g]", s[0], median(s), s[len(s)-1])
		}
		if v.Samples > 0 {
			line += fmt.Sprintf("  n=%d", v.Samples)
		}
		fmt.Fprintln(w, line)
	}
	share := ratio(float64(d.Failed), float64(d.Attempted))
	fmt.Fprintf(w, "  failed %d of %d operations (share %.2e): %d transactions, %d ledger mismatches; correct=%v\n",
		d.Failed, d.Attempted, share, d.FailedTxns, d.LedgerMismatches, d.Correct)
	for kind, text := range d.FirstErrors {
		fmt.Fprintf(w, "  first %s error: %s\n", kind, text)
	}
	if d.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", d.SpanFile)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
