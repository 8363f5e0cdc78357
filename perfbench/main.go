// Command perfbench is the repository benchmark. It drives the sharded
// KV service end to end through its wire client, and the paper's
// Vacation workload through the STM, and reports what a client sees
// (throughput, latency, set-up time, memory). With --trace 1 it instead
// replays each request stream one layer lower at every step of a ladder
// (wire → kv.Session → STM transactions over a B-link tree) and splits a
// request's cost by layer from spans recorded around the calls into each
// layer. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report. The exit code is non-zero on any failed
// correctness check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runLimit bounds a whole run: a run still going after it is reported
// and killed, so a stall can never turn into a hang.
const runLimit = 170 * time.Second

// e2eMetrics and layerMetrics are the metrics the JSON line carries with
// --trace 0 and --trace 1; BENCHMARK.json declares the same names.
var (
	e2eMetrics   = []string{"setup_s", "ops_per_s", "p50_us", "p99_us", "heap_mb"}
	layerMetrics = []string{
		"req.op_ns", "wire.self_share", "kv.self_share", "stm.self_share", "core.hook_share", "txbtree.share",
		"stm.tx_ns", "stm.self_ns", "core.begin_ns", "core.committed_ns",
		"stm.attempts_per_commit", "stm.opens_per_attempt", "stm.wasted_share",
		"core.resolve_per_commit", "core.wait_share", "core.bad_events", "core.priority_collisions", "core.fallback_commits",
		"kv.commits_per_op", "kv.aborts_per_commit", "kv.watchdog_trips",
		"txbtree.semantic_conflicts", "txbtree.smos",
		"proc.allocs_per_op", "proc.gc_cpu_share", "trace.overhead_share",
	}
)

var workloadNames = []string{"kv-read", "kv-txn", "stm-vacation"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the JSON line's fields plus the report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report   []string
	problems []string
}

// add records a metric for the report; emit keeps the ones the mode
// declares for the JSON line. n is the sample count behind it (0 when it
// is not a sample statistic).
func (r *result) add(name string, v float64, unit string, n int64) {
	line := fmt.Sprintf("%-28s %14.4f %s", name, v, unit)
	if n > 0 {
		line += fmt.Sprintf("  (n=%d)", n)
	}
	r.report = append(r.report, line)
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// traceOut is where a traced run writes its spans.
	traceOut string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds (1-60)")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced ladder")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be in [1, 60] (got %d)\n", cfg.seconds)
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1 (got %d)\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.traceOut = fmt.Sprintf(".bench_build/perfbench-%s-%d.json", cfg.workload, cfg.seed)
	known := false
	for _, n := range workloadNames {
		known = known || n == cfg.workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames, ", "))
		return 2
	}

	// Each workload fixes its parallelism, never above the machine's CPUs.
	procs := vacationProcs
	if w := kvWorkloadNamed(cfg.workload); w != nil {
		procs = w.procs
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), procs))
	limit := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; stopping\n", runLimit)
		os.Exit(3)
	})
	defer limit.Stop()

	res := &result{Metrics: map[string]metric{}}
	var err error
	switch {
	case cfg.workload == "stm-vacation" && cfg.trace:
		err = vacationTraced(&cfg, res)
	case cfg.workload == "stm-vacation":
		err = vacationEndToEnd(&cfg, res)
	case cfg.trace:
		err = kvTraced(&cfg, kvWorkloadNamed(cfg.workload), res)
	default:
		err = kvEndToEnd(&cfg, kvWorkloadNamed(cfg.workload), res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return emit(&cfg, res)
}

func kvWorkloadNamed(name string) *kvWorkload {
	for i := range kvWorkloads {
		if kvWorkloads[i].name == name {
			return &kvWorkloads[i]
		}
	}
	return nil
}

// emit prints the report and the JSON line, keeping in the JSON only
// the metrics the mode declares. It returns the exit code.
func emit(cfg *config, res *result) int {
	want := e2eMetrics
	if cfg.trace {
		want = layerMetrics
	}
	out := map[string]metric{}
	for _, name := range want {
		m, ok := res.Metrics[name]
		if !ok {
			res.fail("metric %s was not measured", name)
			continue
		}
		out[name] = m
	}
	res.Metrics = out
	if res.Failed > 0 {
		res.fail("%d of %d requests failed their checks", res.Failed, res.Attempted)
	}
	res.Correct = len(res.problems) == 0
	if !res.Correct && res.Failed == 0 {
		// A failed check that is not tied to one request (an invariant, a
		// watchdog trip, a missing metric) still fails the run.
		res.Failed = 1
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "perfbench %s seed %d, %ds, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, f := range hostFacts() {
		fmt.Fprintf(w, "host %s\n", f)
	}
	for _, line := range res.report {
		fmt.Fprintln(w, line)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	w.Write(enc)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write result: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// hostFacts describes the machine a run measured.
func hostFacts() []string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("go=%s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("cpu=%s", model),
	}
}

// warmFor is the untimed warm-up before each measured phase.
func warmFor(dur time.Duration) time.Duration {
	return min(max(dur/5, 200*time.Millisecond), time.Second)
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB forces collections and returns the live heap in MB. The
// second collection empties what sync.Pool caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
