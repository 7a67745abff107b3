// The benchmarks live in an external test package: the harness drives the
// public aurora API (the tenants experiment opens volumes on a shared
// fleet), so an in-package test file importing harness would be a cycle.
package aurora_test

import (
	"fmt"
	"sort"
	"testing"

	"aurora"
	"aurora/internal/harness"
)

// BenchmarkExperiments runs every experiment of the paper report at Quick
// scale, one sub-benchmark per id, and reports each metric of its last
// run; `cmd/aurora-bench` runs the same table at full scale and prints the
// paper-shaped tables with their shape verdicts.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				r, err := e.Run(harness.Quick())
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			keys := make([]string, 0, len(last.Metrics))
			for k := range last.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				b.ReportMetric(last.Metrics[k], k)
			}
		})
	}
}

// Micro-benchmarks of the public API on a fast local cluster.

func benchCluster(b *testing.B) *aurora.Cluster {
	b.Helper()
	c, err := aurora.NewCluster(aurora.Options{Name: "bench", DisableBackground: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func BenchmarkClusterPut(b *testing.B) {
	c := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put([]byte(fmt.Sprintf("bench-%09d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterGet(b *testing.B) {
	c := benchCluster(b)
	const rows = 10000
	for i := 0; i < rows; i++ {
		if err := c.Put([]byte(fmt.Sprintf("bench-%09d", i)), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Get([]byte(fmt.Sprintf("bench-%09d", i%rows))); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterTxnCommit(b *testing.B) {
	c := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := c.Begin()
		for j := 0; j < 4; j++ {
			if err := tx.Put([]byte(fmt.Sprintf("t%d-%d", i, j)), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterParallelPut(b *testing.B) {
	c := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n++
			if err := c.Put([]byte(fmt.Sprintf("p-%d-%d", n, b.N)), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	})
}
