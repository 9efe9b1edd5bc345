// Command perfbench is the repository's benchmark. It runs one named
// workload against the code as it is, checks every answer against a
// reference system that never materializes views, and prints each
// metric by name and unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 the run records
// spans at each layer boundary and the metrics are the per-layer ones.
//
//	bash perfbench/run.sh --workload sdss-replay --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_qps", "1/s"},
	{"sim_s_per_query", "sim_s"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. Every
// workload reports all of them; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"core.plan_ms_p50", "ms"},
	{"core.plan_ms_total", "ms"},
	{"core.exec_ms_p50", "ms"},
	{"core.exec_ms_p99", "ms"},
	{"core.exec_ms_total", "ms"},
	{"core.maint_ms_total", "ms"},
	{"core.rewritten_ratio", "ratio"},
	{"pool.evictions_per_query", "count"},
	{"pool.fragments", "count"},
	{"engine.read_mb_per_query", "MB"},
	{"server.handler_ms_p50", "ms"},
	{"server.handler_ms_total", "ms"},
	{"server.transport_ms_p50", "ms"},
	{"server.plan_batches_per_query", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hit_ms_p50", "ms"},
	{"cache.miss_ms_p50", "ms"},
	{"cache.invalidations_per_op", "count"},
	{"shard.front_ms_p50", "ms"},
	{"shard.subrequest_ms_p50", "ms"},
	{"shard.subrequests_per_op", "count"},
	{"shard.self_ms_p50", "ms"},
	{"ingest.append_handler_ms_p50", "ms"},
	{"ingest.append_p50_ms", "ms"},
	{"ingest.append_p90_ms", "ms"},
	{"ingest.rows_per_s", "1/s"},
	{"ingest.refreshes_per_append", "count"},
	{"ingest.drops", "count"},
	{"datastore.busy_ms", "ms"},
	{"datastore.records", "count"},
	{"datastore.bytes", "B"},
	{"datastore.bytes.put_file", "B"},
	{"datastore.bytes.append_file", "B"},
	{"datastore.bytes.append_rows", "B"},
	{"datastore.bytes.hit", "B"},
	{"datastore.bytes_per_user_byte", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_sum_error", "ratio"},
}

// selfSumTolerance bounds trace.self_sum_error: per-layer self times
// must account for the traced wall time of every client connection to
// within this share.
const selfSumTolerance = 0.02

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dir is a per-run scratch directory inside the checkout (journals).
	dir string
	// spanPath is where a traced run writes its spans.
	spanPath string
}

// outcome is one workload run's result. failed counts operations that
// errored, were refused or answered wrongly; wrong counts only the
// answers that differed from the reference.
type outcome struct {
	attempted int
	failed    int
	wrong     int
	metrics   map[string]float64
	// extra are figures printed for a reader but not part of the JSON
	// result, such as the append latencies of the one workload that
	// appends.
	extra []string
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) printf(format string, args ...any) {
	o.extra = append(o.extra, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"sdss-replay":  runSDSSReplay,
	"serve-hot":    runServeHot,
	"ingest-mixed": runIngestMixed,
}

// runDeadline bounds a whole run; past it the process gives up rather
// than hang.
const runDeadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name: sdss-replay, serve-hot or ingest-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(3)
	})

	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	cfg := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      dir,
		spanPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)),
	}
	out, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(*workload, cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

// report prints the human-readable lines and then the JSON result line.
func report(name string, cfg runConfig, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %v trace %v (GOMAXPROCS %d)\n",
		name, cfg.seed, cfg.seconds.Seconds(), cfg.trace, runtime.GOMAXPROCS(0))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("  %-34s %14.6f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  %-34s %14.6f ratio (%d failed of %d attempted, %d wrong answers)\n",
		"error_rate", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted, out.wrong)
	for _, e := range out.extra {
		fmt.Println("  " + e)
	}
	for _, n := range out.notes {
		fmt.Println("  note: " + n)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. A set-up takes a fraction of a second, so one reading is
// mostly scheduling and collector noise.
const setupRepeats = 7

// timeSetup times one set-up, starting from a collected heap.
func timeSetup(f func() error) (float64, error) {
	runtime.GC()
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

// totalAlloc is the heap the process has allocated so far, in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocKBPerOp is the heap allocated since before, in KiB per operation.
func allocKBPerOp(before uint64, ops int) float64 {
	return ratio(float64(totalAlloc()-before)/1024, float64(ops))
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
