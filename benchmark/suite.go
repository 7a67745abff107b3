package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// env is the header of a suite report: what ran, where, and how far the
// host's timers are from what the simulators ask of them.
type env struct {
	GitCommit     string     `json:"git_commit"`
	GoVersion     string     `json:"go_version"`
	NProc         int        `json:"nproc"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	Clients       int        `json:"clients"`
	Seed          int64      `json:"seed"`
	WindowSeconds float64    `json:"window_seconds"`
	SliceSeconds  float64    `json:"slice_seconds"`
	NetDelay      delayProbe `json:"netsim_cross_az_delay"`
	DiskDelay     delayProbe `json:"disk_nvme_write_delay"`
	GoLines       int        `json:"go_lines_non_test"`
	GoTestLines   int        `json:"go_lines_test"`
}

// report is what -json writes and -compare reads.
type report struct {
	Env env `json:"env"`
	// Claim is always null: this benchmark's runs are baselines, and a gain
	// is claimed by the change that makes it.
	Claim     *string               `json:"claim"`
	Workloads map[string]passReport `json:"workloads"`
}

type passReport struct {
	Measured *detail `json:"measured"`
	Traced   *detail `json:"traced,omitempty"`
}

func gatherEnv(seed int64, p plan) (env, error) {
	e := env{GitCommit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: procs, Clients: clientCount(), Seed: seed,
		WindowSeconds: p.window.Seconds(), SliceSeconds: p.slice.Seconds()}
	// Outside a git checkout the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	var err error
	if e.NetDelay, err = netDelay(200); err != nil {
		return e, err
	}
	if e.DiskDelay, err = diskDelay(200); err != nil {
		return e, err
	}
	e.GoLines, e.GoTestLines, err = countGoLines(".")
	return e, err
}

// countGoLines counts the lines of Go under root, test files apart.
func countGoLines(root string) (src, test int, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(buf, []byte{'\n'})
		if strings.HasSuffix(path, "_test.go") {
			test += n
		} else {
			src += n
		}
		return nil
	})
	return src, test, err
}

// runSuite runs every workload, each pass in a child process of its own:
// back-to-back runs in one process drift as the heap grows (7.9k to 10.7k
// txn/s over four identical repeats).
func runSuite(p plan, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Workloads: make(map[string]passReport)}
	if rep.Env, err = gatherEnv(o.seed, p); err != nil {
		return err
	}
	for _, s := range specs {
		var pr passReport
		for t := 0; t <= o.trace; t++ {
			args := []string{"-workload", s.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(t), "-out", o.outDir}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", s.name, t, err)
			}
			d := new(detail)
			if err := readJSON(runFile(o.outDir, s.name, t), d); err != nil {
				return err
			}
			d.print(os.Stdout)
			if t == 0 {
				pr.Measured = d
			} else {
				pr.Traced = d
			}
		}
		rep.Workloads[s.name] = pr
	}
	fmt.Printf("env: %+v\n", rep.Env)
	if o.jsonOut != "" {
		return writeJSON(o.jsonOut, rep)
	}
	return nil
}
