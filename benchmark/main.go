// Command benchmark is the repository's one fixed benchmark: four
// closed-loop workloads, ten end-to-end metrics, per-layer probes and a
// traced pass. See README.md in this directory.
//
//	go run ./benchmark                      all workloads, measured pass
//	go run ./benchmark -trace 1             ... followed by the traced pass
//	go run ./benchmark -workload read_miss  one workload, one pass, in-process
//	go run ./benchmark -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// procs pins GOMAXPROCS. On the two-vCPU reference sandbox one busy thread
// repeats a fixed computation within 3 %, two busy threads swing by a factor
// of two, and this benchmark's run-to-run spread falls from about 15 % at
// the default to about 5 % (evidence in README.md). Every client, sender,
// storage-node and background goroutine still runs; they share one core.
const procs = 1

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	jsonOut  string
	outDir   string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: write_only, read_miss, mixed_replica, delay_dc (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 runs the measured pass, 1 the traced pass; without: 1 adds the traced pass")
	flag.BoolVar(&o.quick, "quick", false, "a 3 s window at 1/20 of the rows, to try the benchmark out")
	flag.StringVar(&o.jsonOut, "json", "", "without -workload: write the full report to this file")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "benchmark"), "directory for span files and per-run reports")
	flag.BoolVar(&o.compare, "compare", false, "compare two -json reports given as arguments")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if err := mainErr(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareReports(os.Stdout, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	p := fullPlan(o.seconds)
	if o.quick {
		p = quickPlan()
	}
	if o.workload == "" {
		return runSuite(p, o)
	}
	s := specByName(o.workload)
	if s == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	d, err := runPass(s, p, o.seed, o.trace, o.outDir)
	if err != nil {
		return err
	}
	d.print(os.Stdout)
	if err := writeJSON(runFile(o.outDir, s.name, o.trace), d); err != nil {
		return err
	}
	line, err := d.resultLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runPass runs one pass of one workload in this process.
func runPass(s *spec, p plan, seed int64, trace int, outDir string) (*detail, error) {
	var d *detail
	var err error
	if trace == 1 {
		d, err = traced(s, p, seed, outDir)
	} else {
		d, err = measure(s, p, seed)
	}
	if err != nil {
		return nil, err
	}
	return d, d.check()
}

func runFile(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}
