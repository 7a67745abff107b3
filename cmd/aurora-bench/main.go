// aurora-bench regenerates the paper's tables and figures against the
// simulated substrate, prints them, and checks each against the shape the
// paper says it must have. It exits 1 if any experiment fails to run or
// fails its shape.
//
// Usage:
//
//	aurora-bench                        # run every experiment at full scale
//	aurora-bench -exp table1            # one experiment
//	aurora-bench -exp table1,table3     # a comma-separated subset
//	aurora-bench -quick                 # CI-sized runs
//	aurora-bench -json results.json     # also write results and verdicts as JSON
//	aurora-bench -list                  # list experiment ids in report order
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aurora/internal/harness"
)

// runRecord is one experiment's JSON output: the Result, its wall time and
// its shape verdict ("ok" or "FAIL: <reason>").
type runRecord struct {
	*harness.Result
	ElapsedMS int64 `json:"ElapsedMS"`
	Shape     string
}

func main() {
	exp := flag.String("exp", "", "experiment id(s) to run, comma-separated (default: all)")
	quick := flag.Bool("quick", false, "CI-sized scale instead of full")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.String("json", "", "write results to this file as JSON")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Println(e.ID)
		}
		return
	}

	scale := harness.Full()
	if *quick {
		scale = harness.Quick()
	}

	byID := map[string]harness.Experiment{}
	for _, e := range harness.Experiments {
		byID[e.ID] = e
	}
	exps := harness.Experiments
	if *exp != "" {
		exps = nil
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			e, ok := byID[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	} else {
		fmt.Printf("aurora-bench: reproducing the SIGMOD'17 evaluation (scale: %+v)\n", scale)
	}

	var records []runRecord
	failed := 0
	for _, e := range exps {
		start := time.Now()
		res, err := e.Run(scale)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Printf("\n== %s ==\n  run FAIL: %v\n", e.ID, err)
			failed++
			continue
		}
		res.Print(os.Stdout)
		fmt.Printf("  [%s in %v]\n", e.ID, elapsed.Round(time.Millisecond))
		verdict := "ok"
		if err := e.Check(res); err != nil {
			verdict = "FAIL: " + strings.ReplaceAll(err.Error(), "\n", "; ")
			failed++
		}
		fmt.Printf("  shape %s\n", verdict)
		records = append(records, runRecord{Result: res, ElapsedMS: elapsed.Milliseconds(), Shape: verdict})
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d result(s) to %s\n", len(records), *jsonOut)
	}
	if failed > 0 {
		fmt.Printf("%d of %d experiment(s) failed\n", failed, len(exps))
		os.Exit(1)
	}
}
