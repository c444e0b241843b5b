package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval. Parent 0 marks a root; a span's layer is
// its name up to the first dot.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced code paths pay a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records an already-measured interval: a child placed at start with
// duration d, for stage timings the program reports itself.
func (t *tracer) add(parent int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfNS returns each span's self time: its duration minus the part of its
// interval that its children cover.
func (t *tracer) selfNS() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = (s.EndNS - s.StartNS) - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	SelfMS float64 `json:"self_ms"`
	Spans  int     `json:"spans"`
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// layerSelfTimes sums self time per layer.
func (t *tracer) layerSelfTimes() map[string]layerTime {
	self := t.selfNS()
	out := map[string]layerTime{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		lt := out[layerOf(s.Name)]
		lt.SelfMS += float64(self[i]) / 1e6
		lt.Spans++
		out[layerOf(s.Name)] = lt
	}
	return out
}

// check verifies the span tree: every span is closed, and no span's self
// time exceeds the duration of its parent.
func (t *tracer) check() error {
	self := t.selfNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) not closed", s.ID, s.Name)
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", s.ID, s.Name, self[i])
		}
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			if self[i] > p.EndNS-p.StartNS {
				return fmt.Errorf("span %d (%s) self time %d ns exceeds parent %s's %d ns",
					s.ID, s.Name, self[i], p.Name, p.EndNS-p.StartNS)
			}
		}
	}
	return nil
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
