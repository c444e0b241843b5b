package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// report is what one workload run produces.
type report struct {
	metrics    map[string]Metric
	counts     *counts
	detail     map[string]any
	spans      *tracer    // nil for untraced runs
	mu         sync.Mutex // guards mismatches: checks run on load goroutines
	mismatches []string
}

func newReport() *report {
	return &report{metrics: map[string]Metric{}, counts: &counts{}, detail: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = Metric{Value: v, Unit: unit} }

// mismatch records a failed output check; any mismatch makes the run
// incorrect. Only the first few are kept verbatim.
func (r *report) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// setE2E records the end-to-end metrics every workload reports; times
// and rates are at reference speed (see speed.go).
func (r *report) setE2E(sp *speed, setup []float64, itemsPerS, p50ms, tailMS, allocKBPerItem float64) {
	r.set("setup_s", "s", median(setup))
	r.set("items_per_s", "1/s", itemsPerS)
	r.set("p50_ms", "ms", p50ms)
	r.set("tail_ms", "ms", tailMS)
	r.set("alloc_kb_per_item", "KB", allocKBPerItem)
	r.detail["setup_s_all"] = setup
	r.detail["speed"] = sp.summary()
}

// perLayer lists every per-layer metric with its unit. A traced run of any
// workload reports all of them; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"index.build_ms", "ms"},
	{"index.knn_per_point", "count"},
	{"geom.dist_evals_per_knn", "count"},
	{"matdb.materialize_ms", "ms"},
	{"matdb.alloc_mb", "MB"},
	{"matdb.probe_us", "us"},
	{"matdb.closure_rows", "count"},
	{"matdb.closure_us", "us"},
	{"core.sweep_ms", "ms"},
	{"core.sweep_alloc_mb", "MB"},
	{"core.eval_us", "us"},
	{"score.alloc_kb_per_query", "KB"},
	{"pool.borrows", "count"},
	{"approx.certified_frac", "ratio"},
	{"snapshot.open_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.shed_total", "count"},
	{"server.stream_overhead_ms", "ms"},
	{"shard.candidates_ms", "ms"},
	{"shard.rows_ms", "ms"},
	{"shard.kdists_ms", "ms"},
	{"shard.rpcs_per_request", "count"},
	{"shard.bytes_per_request", "bytes"},
	{"coord.score_ms", "ms"},
	{"coord.install_ms", "ms"},
	{"stream.plan_ms", "ms"},
	{"stream.apply_ms", "ms"},
	{"stream.drain_ms", "ms"},
	{"stream.replay_ms", "ms"},
	{"stream.score_us", "us"},
	{"incremental.insert_ms", "ms"},
	{"incremental.delete_ms", "ms"},
	{"incremental.affected_per_insert", "count"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// initPerLayer sets every per-layer metric to 0 so a traced run always
// reports the full set; the workload then overwrites the ones it measures.
func (r *report) initPerLayer() {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}

// setLayer overwrites one per-layer metric, keeping its declared unit.
func (r *report) setLayer(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			r.set(name, m.unit, v)
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// counts accounts for every operation a run attempts.
type counts struct {
	attempted, ok, failed, shed, timedOut atomic.Int64
}

type countSnapshot struct {
	Attempted  int64   `json:"attempted"`
	OK         int64   `json:"ok"`
	Failed     int64   `json:"failed"`
	Shed       int64   `json:"shed"`
	TimedOut   int64   `json:"timed_out"`
	FailedFrac float64 `json:"failed_frac"`
}

func (c *counts) snapshot() countSnapshot {
	s := countSnapshot{
		Attempted: c.attempted.Load(), OK: c.ok.Load(), Failed: c.failed.Load(),
		Shed: c.shed.Load(), TimedOut: c.timedOut.Load(),
	}
	if s.Attempted > 0 {
		s.FailedFrac = float64(s.Failed+s.Shed+s.TimedOut) / float64(s.Attempted)
	}
	return s
}

// record classifies one attempted operation by its error.
func (c *counts) record(err error) {
	c.attempted.Add(1)
	var se *statusError
	switch {
	case err == nil:
		c.ok.Add(1)
	case errors.As(err, &se) && se.code == 429:
		c.shed.Add(1)
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &se) && se.code == 503:
		c.timedOut.Add(1)
	default:
		c.failed.Add(1)
	}
}

// lat collects durations in milliseconds from concurrent goroutines.
type lat struct {
	mu sync.Mutex
	ms []float64
}

func (l *lat) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

func (l *lat) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

func (l *lat) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// medianDiff returns the median of a[i]-b[i]: the paired difference of two
// sample sets taken in turns, which drift in the machine's speed moves
// less than a difference of medians.
func medianDiff(a, b []float64) float64 {
	d := make([]float64, min(len(a), len(b)))
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tailInfo describes a latency sample set for the report: its size, median,
// and the named percentile with the count of samples beyond it.
func tailInfo(xs []float64, q float64) map[string]any {
	if len(xs) == 0 {
		return map[string]any{"n": 0}
	}
	beyond := 0
	t := quantile(xs, q)
	for _, x := range xs {
		if x > t {
			beyond++
		}
	}
	return map[string]any{
		"n": len(xs), "p50_ms": median(xs), "p90_ms": quantile(xs, 0.9), "p99_ms": quantile(xs, 0.99),
		"q": q, "q_ms": t, "beyond_q": beyond,
	}
}
