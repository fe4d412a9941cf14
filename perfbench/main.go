// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the verification engines (in process) or against
// gpod child processes, checks every verdict, state count and witness
// against the known-answer table, and prints its metrics. See README.md.
//
// Run it from the repository root through run.sh, which builds this
// driver and cmd/gpod first:
//
//	bash perfbench/run.sh --workload gpo-table1 --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var workloads = []string{"gpo-table1", "explicit-baselines", "serve-mix", "cluster-bfs"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: gpo-table1, explicit-baselines, serve-mix or cluster-bfs")
		seed     = flag.Uint64("seed", 1, "workload seed: fixes request order, net-name salts, bad-set draws and arrival times")
		seconds  = flag.Int("seconds", 12, "how long to measure; closed loops finish the cycle in progress")
		traced   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics instead of the end-to-end ones")
		gpod     = flag.String("gpod", "", "gpod binary (serve-mix and cluster-bfs)")
		work     = flag.String("work", ".bench_build", "directory for temp dirs and span dumps")
		deriveTo = flag.String("derive", "", "derive the known-answer table with the exhaustive engine, write it to this file and exit")
	)
	flag.Parse()
	if *deriveTo != "" {
		if err := derive(*deriveTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *gpod, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(*traced == 1)
}

func run(workload string, seed uint64, d time.Duration, traced bool, gpod, work string) (*Result, error) {
	answers, err := loadAnswers()
	if err != nil {
		return nil, err
	}
	dumps := filepath.Join(work, "traces")
	switch workload {
	case "gpo-table1", "explicit-baselines":
		w := gpoTable1()
		if workload == "explicit-baselines" {
			w = explicitBaselines()
		}
		if traced {
			return w.tracedRun(seed, d, answers, dumps)
		}
		return w.run(seed, d, answers)
	case "serve-mix", "cluster-bfs":
		if _, err := os.Stat(gpod); err != nil {
			return nil, fmt.Errorf("-gpod: %w", err)
		}
		tmp := filepath.Join(work, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		s := &service{gpod: gpod, tmpRoot: tmp, answers: answers}
		if workload == "serve-mix" {
			return s.serveMix(seed, d, traced, dumps)
		}
		return s.clusterBFS(seed, d, traced, dumps)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}
