// Command perfbench is the InsightNotes benchmark. It builds a seeded
// corpus on a durable engine, runs one workload (or all of them) through
// the engine's public API, checks every answer against a ledger of what it
// wrote, and prints the end-to-end metrics, or with --trace 1 the
// per-layer ones, as one JSON object on the last line of standard output.
//
//	perfbench --workload browse --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10
//	perfbench --workload firehose --seed 1 --seconds 10 --steady 5
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricUnits is every metric the benchmark reports, with its unit. The
// end-to-end ones come first.
var metricUnits = []struct{ name, unit string }{
	{"setup_s", "s"}, {"cpu_ms_per_op", "ms"}, {"alloc_kb_per_op", "KiB"}, {"zoom_p50_ms", "ms"},
	{"heap_mb", "MiB"}, {"disk_mb", "MiB"},

	{"sql.parse_us", "us"}, {"plan.plan_us", "us"}, {"plan.cache_hit_ratio", "ratio"},
	{"plan.full_scans_per_read", "count"}, {"exec.scan_us", "us"}, {"exec.join_us", "us"},
	{"exec.rows_examined_per_row", "count"}, {"summary.merges_per_read", "count"},
	{"summary.curates_per_read", "count"}, {"summary.maintain_us_per_ann", "us"},
	{"summary.digest_hit_ratio", "ratio"}, {"annotation.bytes_per_ann", "B"},
	{"storage.pool_hit_ratio", "ratio"}, {"storage.pool_misses_per_op", "count"},
	{"wal.append_us", "us"}, {"wal.commit_us", "us"}, {"wal.records_per_fsync", "count"},
	{"wal.bytes_per_ann", "B"}, {"wal.checkpoints", "count"}, {"zoomin.materialize_us", "us"},
	{"zoomin.result_kb", "KiB"}, {"zoomin.expand_us", "us"}, {"zoomin.hit_ratio", "ratio"},
	{"engine.unspanned_us", "us"}, {"engine.replayed_records", "count"}, {"engine.snapshot_mb", "MiB"},
	{"server.wire_us", "us"}, {"server.queue_wait_us", "us"}, {"trace.overhead_pct", "%"},
}

func unitOf(name string) string {
	for _, m := range metricUnits {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "browse, firehose, mixed, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "sizes the timed phase: each workload runs a fixed number of rounds per second of it")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	steady := flag.Int("steady", 0, "repeat each workload this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
	tmp := flag.String("tmp", "", "directory for the run's data and cache dirs (default: the system temp dir)")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	var list []*workload
	switch {
	case *workloadName == "all":
		list = workloads
	case workloadByName(*workloadName) != nil:
		list = []*workload{workloadByName(*workloadName)}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (browse, firehose, mixed, all)\n", *workloadName)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	// One temp dir per run holds every data dir and cache dir, and goes
	// when the run ends.
	root, err := os.MkdirTemp(*tmp, "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer removeDir(root)
	fmt.Fprintf(os.Stderr, "host: nproc=%d GOMAXPROCS=%d %s/%s %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())

	if *steady > 0 {
		return steadiness(list, root, *seed, *steady, *seconds, *traceFlag == 1, *spans)
	}
	code := 0
	for i, w := range list {
		dir := filepath.Join(root, fmt.Sprint(i))
		o, err := runWorkload(w, dir, *seed, *seconds, *traceFlag == 1,
			filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		removeDir(dir)
		report(w, o)
		if o.wrong > 0 {
			code = 1
		}
	}
	return code
}

// report prints a run's metrics as a table on standard error and as the
// JSON result line on standard output.
func report(w *workload, o *outcome) {
	fmt.Fprintf(os.Stderr, "== %s: %d operations attempted, %d failed, %d wrong answers\n",
		w.name, o.attempted, o.failed, o.wrong)
	for _, m := range metricUnits {
		if v, ok := o.metrics[m.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "  error: %s\n", e)
	}
	res := resultJSON{Correct: o.wrong == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for name, v := range o.metrics {
		res.Metrics[name] = metricJSON{Value: v, Unit: unitOf(name)}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// steadiness runs each workload n times with consecutive seeds and prints,
// per metric, the median, the quartiles and the spread (interquartile
// distance over the median) that the bounds in BENCHMARK.json are set from.
func steadiness(list []*workload, root string, seed int64, n int, seconds int, traced bool, spans string) int {
	code := 0
	for _, w := range list {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			dir := filepath.Join(root, fmt.Sprintf("%s-%d", w.name, i))
			o, err := runWorkload(w, dir, s, seconds, traced, filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, s)))
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			removeDir(dir)
			if o.wrong > 0 || o.failed > 0 {
				report(w, o)
				code = 1
			}
			for k, v := range o.metrics {
				values[k] = append(values[k], v)
			}
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("== %s: %d runs, seeds %d..%d, --seconds %d\n", w.name, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("  %-28s %12s %12s %12s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "runs, in seed order")
		for _, k := range names {
			q1, q3 := quartiles(values[k])
			fmt.Printf("  %-28s %12.4f %12.4f %12.4f %7.1f%%  %s\n", k, median(values[k]), q1, q3, 100*spread(values[k]), runValues(values[k]))
		}
	}
	return code
}

// runValues renders one metric's values, run by run, to four significant
// digits.
func runValues(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
