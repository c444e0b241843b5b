package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smallSize shrinks every workload so all of them run in seconds.
var smallSize = sizes{
	fitPoints:    1500,
	setupReps:    2,
	poolBatches:  12,
	window:       64,
	oracleSample: 6,
	countQueries: 100,
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec reads the metric declarations from BENCHMARK.json.
func benchmarkSpec(t *testing.T) (workloads []string, e2e, layers []declared) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// TestSmoke runs every declared workload at reduced size, untraced and
// traced, and checks the printed result: outputs verified, no failed
// operation, every declared metric emitted with its declared unit, and a
// span tree in which no self time exceeds its parent span.
func TestSmoke(t *testing.T) {
	names, e2e, layers := benchmarkSpec(t)
	if len(perLayer) != len(layers) {
		t.Errorf("perfbench declares %d per-layer metrics, BENCHMARK.json %d", len(perLayer), len(layers))
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layers
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				run, ok := workloads[name]
				if !ok {
					t.Fatalf("BENCHMARK.json names workload %q that perfbench lacks", name)
				}
				o := &options{workload: name, seed: 3, seconds: 0.8, trace: traced, workdir: t.TempDir(), size: smallSize}
				rep, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if traced {
					if err := rep.spans.check(); err != nil {
						t.Error(err)
					}
				}
				var out bytes.Buffer
				if err := printReport(&out, o, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d mismatches=%v", res.Correct, res.Attempted, res.Failed, rep.mismatches)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestSelfTime checks self-time accounting on a hand-built span tree with
// overlapping children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "a.root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "b.x", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b.y", StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, Name: "c.z", StartNS: 90, EndNS: 120},
	}
	self := tr.selfNS()
	if want := []int64{100 - 50 - 10, 30, 30, 30}; !equal(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if err := tr.check(); err != nil {
		t.Error(err)
	}
	lt := tr.layerSelfTimes()
	if lt["b"].Spans != 2 || lt["b"].SelfMS != 60e-6 {
		t.Errorf("layer b = %+v", lt["b"])
	}
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
