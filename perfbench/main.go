// Command perfbench is the repository's end-to-end serving benchmark.
// It deploys the stack in process the way cmd/upanns-serve (and, for
// fanout, cmd/upanns-router) wires it, drives one workload through the
// real HTTP handler with in-memory requests, checks every answer, and
// prints one JSON result line:
//
//	go run . -workload read-ram -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, taken from spans the benchmark
// records around each layer's public calls and from each layer's public
// stats. A human-readable report goes to standard error. The exit code
// is non-zero when any answer was wrong or the generator could not keep
// its schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// maxLateMs is the generator lateness (p90 of send minus due time in an
// open-loop phase) above which a run is invalid: the generator fell
// behind its schedule, so the offered load was not the scheduled one. A
// single host stall makes a few sends late, not a tenth of them.
const maxLateMs = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: read-ram, tiered-filtered, fanout")
		seed    = flag.Uint64("seed", 1, "workload seed: query pools, arrivals and write targets (the corpus is fixed)")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span dumps and scratch files")
	)
	flag.Parse()
	// One generator process on at most two CPUs, whatever the host has,
	// so runs on different hosts offer the same parallelism.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	spec, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload {read-ram|tiered-filtered|fanout}, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{spec: spec, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	res, valid, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	switch {
	case !res.Correct:
		fmt.Fprintln(os.Stderr, "perfbench: FAILED: wrong answers (see VIOLATION lines)")
		os.Exit(1)
	case !valid:
		fmt.Fprintf(os.Stderr, "perfbench: INVALID: generator lateness p90 above %d ms\n", maxLateMs)
		os.Exit(3)
	}
}

// finite returns x, or a large sentinel for +Inf so the JSON stays valid
// when a percentile lands on a failed request.
func finite(x float64) float64 {
	if math.IsInf(x, 1) || math.IsNaN(x) {
		return 1e9
	}
	return x
}
