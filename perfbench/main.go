// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It generates one workload from a seed, drives the LOF stack through its
// public entry points (the lof library, and the lofserve and lofcoord
// handlers on loopback), checks every output it receives, and prints one
// JSON result line with each metric by name and unit.
//
//	perfbench -workload fit-batch -seed 1 -seconds 12 -trace 0
//
// With -trace 1 it instead reports per-layer metrics from spans it records
// around its own calls into each layer. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Metric is one reported measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	size     sizes
}

// sizes holds every input size of the workloads, so the smoke test can run
// them reduced.
type sizes struct {
	fitPoints    int // points in the fitted dataset
	setupReps    int // set-ups per run; setup_s is their median
	poolBatches  int // distinct score batches a run cycles through
	window       int // stream window
	oracleSample int // points recomputed from the definitions
	countQueries int // kNN queries in the distance-counting pass
}

var fullSize = sizes{
	fitPoints:    20000,
	setupReps:    5,
	poolBatches:  256,
	window:       512,
	oracleSample: 24,
	countQueries: 1000,
}

// workloads maps each name to its runner. A runner returns its report, or
// an error when the run could not complete at all.
var workloads = map[string]func(*options) (*report, error){
	"fit-batch":     runFitBatch,
	"score-serve":   runScoreServe,
	"score-sharded": runScoreSharded,
	"stream-window": runStreamWindow,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for snapshots and span dumps")
	flag.Parse()
	o.trace = traceFlag == 1
	o.size = fullSize
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q; valid: %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatalf("workdir: %v", err)
	}
	rep, err := run(&o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if err := printReport(os.Stdout, &o, rep); err != nil {
		fatalf("%s: %v", o.workload, err)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printReport writes the machine metadata and the run's detail as JSON
// lines, then the result as the last line.
func printReport(w io.Writer, o *options, rep *report) error {
	detail := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"machine":  machineInfo(),
		"counts":   rep.counts.snapshot(),
		"detail":   rep.detail,
	}
	if rep.spans != nil {
		detail["layers"] = rep.spans.layerSelfTimes()
	}
	// A metric that could not be measured (no samples) makes the run
	// incorrect rather than unprintable.
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.mismatch("metric %s was not measured", name)
			rep.metrics[name] = Metric{Unit: m.Unit}
		}
	}
	if len(rep.mismatches) > 0 {
		detail["mismatches"] = rep.mismatches
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": detail}); err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	c := rep.counts.snapshot()
	return enc.Encode(Result{
		Correct:   len(rep.mismatches) == 0,
		Attempted: c.Attempted,
		Failed:    c.Failed + c.Shed + c.TimedOut,
		Metrics:   rep.metrics,
	})
}

// machineInfo records where a result was measured.
func machineInfo() map[string]any {
	commit := "unknown"
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			commit += "+modified"
		}
	}
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         goVersion,
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
