// Command perfbench is the end-to-end benchmark of the SASGD trainer.
// It runs one named workload through core.Train with an explicit
// core.Config, checks that every run's outputs are correct, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload cifar-sgd-p1 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics, timed
// around calls into each layer's public functions and taken from a
// traced run's spans. See README.md for the metric and workload list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"sasgd/internal/parallel"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one benchmark invocation's operations and metrics.
type run struct {
	attempted, failed int
	metrics           map[string]metric
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records one failed operation and says why on standard error.
func (r *run) fail(format string, args ...interface{}) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", baselineSeed, fmt.Sprintf("workload seed, passed as core.Config.Seed (baseline %d, held-out %d)", baselineSeed, heldOutSeed))
	seconds := flag.Int("seconds", 25, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics")
	flag.Parse()

	if env := ambientEnv(); len(env) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: these variables change core.Config defaults\n", strings.Join(env, ", "))
		os.Exit(2)
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}

	fmt.Printf("perfbench: workload=%s seed=%d trace=%d go=%s nproc=%d gomaxprocs=%d workers=%d learner_workers=%d\n",
		w.name, *seed, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), parallel.Workers(), w.workers)
	r := newRun()
	budget := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		measureLayers(r, w, *seed, budget)
	} else {
		measureEndToEnd(r, w, *seed, budget)
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.fail("no operation completed")
	}

	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Printf("  %-40s %16.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// ambientEnv lists the SASGD_* environment variables that are set. The
// trainer reads several of them as Config defaults (SASGD_OVERLAP=1
// turns overlap on for every run), so a benchmark run under any of them
// would not measure the configuration it names.
func ambientEnv() []string {
	var set []string
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "SASGD_") {
			set = append(set, k)
		}
	}
	sort.Strings(set)
	return set
}
