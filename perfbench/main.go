// Command perfbench is the repository's benchmark. One invocation runs
// one seeded workload against the real layers in one process, checks that
// every output is correct, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Run it from the repository root through its wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload sched-steady --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - figures: all 20 figure drivers at paper scale through runner.Run,
//     the way "sicfig -all -ablations" runs them. One op is one sweep.
//   - sched-steady: a 2-shard schedd tier behind a gateway holding 256
//     stations on 4 APs; one closed-loop client sends SCHED through the
//     gateway. One op is one SCHED.
//   - ingest-churn: the same tier with WAL-backed sessions, 512 stations
//     on 8 APs reporting open-loop at a fixed paced rate with seeded SNR
//     jitter, beside an open-loop SCHED stream. Latency is per SCHED,
//     timed from when it was due; CPU is per report sent.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced for half the time and traced for the other
// half (the difference is trace.overhead_frac), then replays each layer's
// public entry points on the workload's inputs and prints the per-layer
// metrics. Spans are kept in memory and written to .bench_build at exit.
// --smoke runs every workload briefly, traced, as a self-test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"figures":      runFigures,
	"sched-steady": runSchedSteady,
	"ingest-churn": runIngestChurn,
}

// workloadOrder is the order --smoke runs them in.
var workloadOrder = []string{"figures", "sched-steady", "ingest-churn"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: figures, sched-steady or ingest-churn")
		seed     = flag.Int64("seed", 1, "input seed (same seed, same generated inputs)")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: traced run with per-layer metrics")
		root     = flag.String("root", ".", "repository root (holds go.mod and results/)")
		smoke    = flag.Bool("smoke", false, "run every workload briefly and traced (a self-test, not a measurement)")
	)
	flag.Parse()
	if *smoke {
		os.Exit(runSmoke(*root, *seed))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	b, err := newBench(*root, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	os.Exit(b.finish(run(b)))
}

// runSmoke runs each workload for a second, traced, with a reduced figure
// scale, and fails if any of them fails its gates or misses a metric.
func runSmoke(root string, seed int64) int {
	rc := 0
	for _, name := range workloadOrder {
		b, err := newBench(root, name, seed, time.Second, true, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if code := b.finish(workloads[name](b)); code != 0 {
			rc = code
		}
	}
	return rc
}

// bench is one run's shared state: its settings, outcome counters,
// collected metrics and trace.
type bench struct {
	root     string
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	smoke    bool
	work     string // scratch directory inside the checkout, removed at exit

	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metricValue
	tr        *tracer
	// host CPU counters at the start, for the steal share printed at exit
	hostTotal, hostSteal int64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(root, workload string, seed int64, seconds time.Duration, traced, smoke bool) (*bench, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	b := &bench{
		root: root, workload: workload, seed: seed, seconds: seconds,
		traced: traced, smoke: smoke, work: work,
		metrics: map[string]metricValue{},
		tr:      newTracer(),
	}
	b.hostTotal, b.hostSteal = hostCPU()
	return b, nil
}

// fail records a correctness problem; the run then reports correct=false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", b.workload, msg)
	}
	b.problems = append(b.problems, msg)
}

// set records one metric. Names must come from the declared tables.
func (b *bench) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	b.metrics[name] = metricValue{Value: v, Unit: unit}
}

// finish prints the environment and result lines and returns the exit
// code. A run that could not complete prints no result line.
func (b *bench) finish(runErr error) int {
	defer os.RemoveAll(b.work)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, runErr)
		return 1
	}
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		switch {
		case !ok:
			b.fail("metric %s was not measured", m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			b.fail("metric %s is %v", m.Name, v.Value)
		default:
			out[m.Name] = v
		}
	}
	if b.traced {
		path := filepath.Join(b.root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			b.fail("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", b.tr.len(), path)
		}
	}
	record := environment(b.root)
	if total, steal := hostCPU(); total > b.hostTotal {
		// CPU time the hypervisor gave other guests during this run: the
		// first thing to check when a run reads slower than its siblings.
		record["host_steal_frac"] = float64(steal-b.hostSteal) / float64(total-b.hostTotal)
	}
	env, _ := json.Marshal(record)
	fmt.Printf("env: %s\n", env)
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-40s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(b.problems) == 0, b.attempted, b.failed, out}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// procSample is a point-in-time reading of process-wide counters.
type procSample struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	gc      uint32
	mallocs uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, gc: ms.NumGC, mallocs: ms.Mallocs}
}

// setProc records the proc.* per-layer metrics for ops completed between
// two samples.
func (b *bench) setProc(from, to procSample, ops int64) {
	if ops < 1 {
		ops = 1
	}
	b.set("proc.alloc_bytes_per_op", float64(to.alloc-from.alloc)/float64(ops))
	b.set("proc.gc_cycles", float64(to.gc-from.gc)/float64(ops))
	b.set("proc.cpu_util", (to.cpu-from.cpu).Seconds()/to.wall.Sub(from.wall).Seconds())
}
