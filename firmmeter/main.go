// Command firmmeter is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks every output against the committed
// goldens, and prints its metrics; see README.md for the workloads, the
// metric definitions and the layer map.
//
// Usage, from the repository root:
//
//	bash firmmeter/run.sh --workload corpus-lint --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off; with --trace 1 they are
// the per-layer ones from a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(r *run) error{
	"corpus-lint":    runScan,
	"stripped-probe": runScan,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// deadline is when a run stops adding work, however far its phases
	// got, so that it exits well within the three minutes a run may take.
	deadline time.Time

	tally   tally
	metrics map[string]metric
	// scratch roots every file the run writes; removed at exit.
	scratch string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) put(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// endToEnd lists every end-to-end metric with its unit, in the order of
// BENCHMARK.json. Every workload reports all of them; README.md defines
// them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"images_per_s", "1/s"},
	{"cpu_ms_per_image", "ms"},
	{"allocs_per_image", "count"},
	{"alloc_kb_per_image", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"success_rate", "ratio"},
	{"turnaround_p50_ms", "ms"},
	{"turnaround_p95_ms", "ms"},
}

// checkReported fails unless the run reported exactly the declared
// metrics of its kind, with their declared units.
func (r *run) checkReported() error {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.metrics[m.name]
		if !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s missing or not in %s", m.name, m.unit)
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBudget bounds one run's phases; set-up, read-back and replays come on
// top of it.
const runBudget = 120 * time.Second

// buildDir is where the benchmark keeps its build, scratch data and trace
// files, inside the checkout it runs from.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "workload: corpus-lint or stripped-probe")
		seed     = flag.Int64("seed", 1, "seed for pass order, arrival times, path draws and nonce bytes")
		seconds  = flag.Float64("seconds", 30, "measured time of the run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		setup    = flag.String("setup-probe", "", "internal: time one cold first corpus pass of this workload and print it")
	)
	flag.Parse()
	if *setup != "" {
		if err := setupProbe(*setup, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "firmmeter:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "firmmeter: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "firmmeter:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(buildDir, "firmmeter-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "firmmeter:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		metrics: map[string]metric{}, scratch: scratch,
		deadline: time.Now().Add(runBudget),
	}
	printHost(r)
	start := time.Now()
	total0, steal0 := cpuTicks()
	err = fn(r)
	total1, steal1 := cpuTicks()
	_ = os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "firmmeter:", err)
		os.Exit(1)
	}
	if r.tally.attempted == 0 {
		fmt.Fprintln(os.Stderr, "firmmeter: no operation attempted")
		os.Exit(1)
	}
	if err := r.checkReported(); err != nil {
		fmt.Fprintln(os.Stderr, "firmmeter:", err)
		os.Exit(1)
	}
	stealShare := 0.0
	if total1 > total0 {
		stealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	printTable(r, time.Since(start), stealShare)
	res := result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "firmmeter:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable prints every metric by name and unit, plus the error
// accounting, ahead of the JSON result line.
func printTable(r *run, took time.Duration, stealShare float64) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %t: %d attempted, %d failed, error_rate %.6f ratio, cpu steal %.3f, run took %.1fs\n",
		r.workload, r.seed, r.trace, r.tally.attempted, r.tally.failed, r.tally.errorRate(), stealShare, took.Seconds())
	reasons := make([]string, 0, len(r.tally.reasons))
	for k := range r.tally.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("  failure %-24s %d\n", k, r.tally.reasons[k])
	}
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// gomaxprocs is the worker count every workload runs at.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
