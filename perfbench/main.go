// Command perfbench is tracenet's end-to-end benchmark. It runs one workload
// per process, checks the program's outputs, and prints a single JSON result
// line:
//
//	perfbench --workload survey --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds every end-to-end metric; with --trace 1 it
// holds the per-layer metrics of a separate traced run, whose spans are
// written under .bench_build/trace. README.md describes the workloads and
// the metrics.
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

// buildDir holds everything a build and a run write: the Go build cache,
// the binary, daemon spools and spans.
// It is relative to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// opts are the command-line settings every workload receives.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
}

// result is what one workload run produces.
type result struct {
	// correct is false when an output check failed; problems says which.
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   []metric
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// check records a failed output check unless ok holds.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(opts) (*result, error){
	"survey":       runSurvey,
	"isp-observed": runISPObserved,
	"service":      runService,
}

func main() {
	workload := flag.String("workload", "", "survey, isp-observed or service")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload survey|isp-observed|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *trace)

	res, err := run(opts{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Println("check failed:", p)
	}
	sort.Slice(res.metrics, func(i, j int) bool { return res.metrics[i].name < res.metrics[j].name })
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// deadline returns when a timed loop that starts now must stop.
func (o opts) deadline() time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}
