package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"lof"
	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/kdtree"
	"lof/internal/index/xtree"
	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/pool"
)

// The fitted MinPts range: the paper's guideline lower bound of 10 and a
// wide upper bound, so the sweep does real work.
const minPtsLB, minPtsUB = 10, 30

// The index is named rather than auto-selected so that the traced run's
// allocation pass builds the same index lof.Fit builds; auto-selection
// picks the kd-tree for 4-dimensional data too.
func fitConfig() lof.Config {
	return lof.Config{MinPtsLB: minPtsLB, MinPtsUB: minPtsUB, Index: lof.IndexKDTree, Workers: runtime.NumCPU()}
}

// runFitBatch measures library Fit on the generated dataset. It loads the
// index, matdb, the core sweep and the pool, and never touches HTTP, the
// scorer or the stream.
func runFitBatch(o *options) (*report, error) {
	rep := newReport()
	var data [][]float64
	var det *lof.Detector
	var warm *lof.Result
	var sp speed
	setup := make([]float64, 0, o.size.setupReps)
	sp.mark()
	for range o.size.setupReps {
		start := time.Now()
		s := newStreams(o.seed)
		data = s.gen.points(s.data, o.size.fitPoints, dataNoise)
		var err error
		if det, err = lof.New(fitConfig()); err != nil {
			return nil, err
		}
		// One warm-up fit lets lazy runtime set-up and the heap settle
		// before timing.
		if warm, err = det.Fit(data); err != nil {
			return nil, err
		}
		d := time.Since(start)
		sp.mark()
		setup = append(setup, sp.scale(d)/1000)
	}
	want := warm.Scores()

	if o.trace {
		return rep, traceFitBatch(o, rep, det, data, want)
	}

	// Every fit is scaled to reference speed by the marks around it;
	// throughput is the points fitted over the scaled time spent fitting.
	var fits, raw []float64
	a0 := allocBytes()
	deadline := time.Now().Add(seconds(o.seconds))
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		start := time.Now()
		res, err := det.Fit(data)
		d := time.Since(start)
		sp.mark()
		rep.counts.record(err)
		if err != nil {
			rep.mismatch("fit: %v", err)
			continue
		}
		fits, raw = append(fits, sp.scale(d)), append(raw, ms(d))
		compareBits(rep, "fit (repeat)", res.Scores(), want)
	}
	alloc := float64(allocBytes() - a0)
	perS := float64(len(fits)*len(data)) / (sum(fits) / 1000)
	// A run holds a few dozen fits, so the tail is the 75th percentile: the
	// highest with about ten fits beyond it.
	rep.setE2E(&sp, setup, perS, median(fits), quantile(fits, 0.75), alloc/1024/float64(len(fits)*len(data)))
	rep.detail["fit_ms"] = tailInfo(fits, 0.75)
	rep.detail["fit_ms_as_measured"] = tailInfo(raw, 0.75)
	checkOracle(rep, data, want, o.size.oracleSample, o.seed)
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// compareBits records a mismatch unless got equals want bit for bit.
func compareBits(rep *report, what string, got, want []float64) {
	if len(got) != len(want) {
		rep.mismatch("%s: %d scores, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			rep.mismatch("%s: score %d = %v, want %v", what, i, got[i], want[i])
			return
		}
	}
}

// traceFitBatch alternates untraced fits with fits on a detector
// configured with Trace, under a span the benchmark records. The traced
// fit's own phase timings (lof.Result.Stats) become that span's children,
// laid end to end: its top-level phases run one after another. Per-phase
// allocation, which the program does not report, comes from a separate
// pass that calls the index, matdb and core directly.
func traceFitBatch(o *options, rep *report, det *lof.Detector, data [][]float64, want []float64) error {
	rep.initPerLayer()
	cfg := fitConfig()
	cfg.Trace = true
	traced, err := lof.New(cfg)
	if err != nil {
		return err
	}
	tr := newTracer()
	rep.spans = tr
	var untraced, knnPerPoint, borrows []float64
	plain := func() error {
		start := time.Now()
		_, err := det.Fit(data)
		rep.counts.record(err)
		untraced = append(untraced, ms(time.Since(start)))
		return err
	}
	spanned := func() error {
		root := tr.begin(0, "fit.total")
		start := time.Now()
		res, err := traced.Fit(data)
		tr.end(root)
		rep.counts.record(err)
		if err != nil {
			return err
		}
		st := res.Stats()
		at := start
		for _, ph := range []struct{ phase, span string }{
			{obs.PhaseIngest, "lof.ingest"},
			{obs.PhaseIndexBuild, "index.build"},
			{obs.PhaseMaterialize, "matdb.materialize"},
			{obs.PhaseSweep, "core.sweep"},
		} {
			p, ok := st.Phase(ph.phase)
			if !ok {
				rep.mismatch("traced fit recorded no %s phase", ph.phase)
				continue
			}
			tr.add(root, ph.span, at, p.Total)
			at = at.Add(p.Total)
		}
		knnPerPoint = append(knnPerPoint, float64(st.Counter(obs.CounterKNNQueries))/float64(len(data)))
		borrows = append(borrows, float64(st.Counter(obs.CounterPoolBorrows)))
		compareBits(rep, "traced fit", res.Scores(), want)
		return nil
	}
	// The two kinds take turns going first, so each sees the same
	// neighbours on the machine and the heap.
	deadline := time.Now().Add(seconds(o.seconds * 0.8))
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		first, second := plain, spanned
		if n%2 == 1 {
			first, second = spanned, plain
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	pts, _ := det.Model().Fitted()
	matMB, sweepMB, err := phaseAllocs(pts)
	if err != nil {
		return err
	}
	rep.setLayer("index.build_ms", median(tr.durations("index.build")))
	rep.setLayer("matdb.materialize_ms", median(tr.durations("matdb.materialize")))
	rep.setLayer("core.sweep_ms", median(tr.durations("core.sweep")))
	rep.setLayer("index.knn_per_point", median(knnPerPoint))
	rep.setLayer("pool.borrows", median(borrows))
	rep.setLayer("matdb.alloc_mb", matMB)
	rep.setLayer("core.sweep_alloc_mb", sweepMB)
	rep.setLayer("geom.dist_evals_per_knn", distEvalsPerKNN(data, o.size.countQueries))
	rep.setLayer("trace.overhead_ms", medianDiff(tr.durations("fit.total"), untraced))
	rep.detail["untraced_fit_ms"] = tailInfo(untraced, 0.75)
	return finishTrace(o, rep)
}

// phaseAllocs returns the median allocation, in MB, of the kNN
// materialization and of the MinPts sweep over the fitted points, calling
// the layers as lof.Fit does for fitConfig: a kd-tree, materialization to
// MinPtsUB on a pool of Workers, then the sweep.
func phaseAllocs(pts *geom.Points) (matMB, sweepMB float64, err error) {
	p := pool.New(runtime.NumCPU())
	ix := kdtree.New(pts, geom.Euclidean{})
	var mat, sweep []float64
	for range 3 {
		a0 := allocBytes()
		db, err := matdb.Materialize(pts, ix, minPtsUB, matdb.WithPool(p))
		if err != nil {
			return 0, 0, err
		}
		a1 := allocBytes()
		if _, err := core.SweepCtx(context.Background(), db, minPtsLB, minPtsUB, p, nil); err != nil {
			return 0, 0, err
		}
		a2 := allocBytes()
		mat = append(mat, float64(a1-a0)/(1<<20))
		sweep = append(sweep, float64(a2-a1)/(1<<20))
	}
	return median(mat), median(sweep), nil
}

// countingMetric is Euclidean distance that counts its evaluations.
type countingMetric struct{ n atomic.Int64 }

func (c *countingMetric) Distance(p, q geom.Point) float64 {
	c.n.Add(1)
	return geom.Euclidean{}.Distance(p, q)
}

func (c *countingMetric) Name() string { return "counting-euclidean" }

// distEvalsPerKNN counts metric evaluations per MinPtsUB-nearest-neighbor
// query over the first n points. The kd-tree and grid prune only for the
// metric types they recognise, so a wrapped metric would turn their
// pruning off; the x-tree's rectangle bound has a generic form and still
// prunes. The count therefore comes from the x-tree and includes the
// rectangle bounds it evaluates. It is exact and repeatable for a seed.
func distEvalsPerKNN(data [][]float64, n int) float64 {
	pts, err := geom.FromRows(toGeom(data))
	if err != nil {
		return math.NaN()
	}
	m := &countingMetric{}
	ix := xtree.BulkLoad(pts, m)
	cur := index.NewCursor(ix)
	n = min(n, len(data))
	m.n.Store(0)
	var buf []index.Neighbor
	for i := 0; i < n; i++ {
		buf = cur.KNNInto(buf[:0], pts.At(i), minPtsUB, i)
	}
	return float64(m.n.Load()) / float64(n)
}

func toGeom(rows [][]float64) []geom.Point {
	out := make([]geom.Point, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// checkOracle recomputes the aggregated LOF of a sample of points straight
// from Definitions 3–7 of the paper by brute force — no index, no
// materialized database — and compares it with the fitted scores. The
// sample takes the highest-scoring points (the outliers LOF exists to
// find) and a seed-chosen remainder.
func checkOracle(rep *report, data [][]float64, got []float64, sample int, seed int64) {
	order := make([]int, len(got))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return got[order[a]] > got[order[b]] })
	picked := append([]int(nil), order[:min(sample/3, len(order))]...)
	r := newStreams(seed).sample
	for len(picked) < min(sample, len(got)) {
		picked = append(picked, r.Intn(len(got)))
	}
	o := newOracle(data)
	for _, i := range picked {
		want := math.Inf(-1)
		for k := minPtsLB; k <= minPtsUB; k++ {
			want = math.Max(want, o.lof(i, k))
		}
		if d := math.Abs(got[i] - want); d > 1e-9*math.Max(1, math.Abs(want)) {
			rep.mismatch("oracle: point %d LOF %v, definitions give %v", i, got[i], want)
		}
	}
	rep.detail["oracle_points"] = len(picked)
}

// oracle evaluates Definitions 3–7 by brute force, memoizing each point's
// nearest-neighbor row.
type oracle struct {
	data [][]float64
	rows map[int][]index.Neighbor
	dist []float64 // scratch: distances from the point being resolved
}

func newOracle(data [][]float64) *oracle {
	return &oracle{data: data, rows: map[int][]index.Neighbor{}, dist: make([]float64, len(data))}
}

// row returns the other points within p's MinPtsUB-distance, ties included,
// sorted by (distance, index) — every neighbor any MinPts ≤ MinPtsUB needs.
func (o *oracle) row(p int) []index.Neighbor {
	if r, ok := o.rows[p]; ok {
		return r
	}
	// A max-heap of the MinPtsUB smallest distances gives the threshold.
	h := make([]float64, 0, minPtsUB)
	for q := range o.data {
		d := math.Inf(1)
		if q != p {
			d = geom.Euclidean{}.Distance(o.data[p], o.data[q])
		}
		o.dist[q] = d
		switch {
		case len(h) < minPtsUB:
			h = append(h, d)
			for i := len(h) - 1; i > 0 && h[(i-1)/2] < h[i]; i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case d < h[0]:
			h[0] = d
			for i := 0; ; {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1] > h[c] {
					c++
				}
				if h[i] >= h[c] {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
	}
	var r []index.Neighbor
	for q, d := range o.dist {
		if d <= h[0] {
			r = append(r, index.Neighbor{Index: q, Dist: d})
		}
	}
	sort.Slice(r, func(a, b int) bool {
		if r[a].Dist != r[b].Dist {
			return r[a].Dist < r[b].Dist
		}
		return r[a].Index < r[b].Index
	})
	o.rows[p] = r
	return r
}

// kdist is Definition 3: the distance to the k-th nearest other point.
func (o *oracle) kdist(p, k int) float64 { return o.row(p)[k-1].Dist }

// neighborhood is Definition 4: every point within the k-distance.
func (o *oracle) neighborhood(p, k int) []index.Neighbor {
	r := o.row(p)
	n := k
	for n < len(r) && r[n].Dist <= r[k-1].Dist {
		n++
	}
	return r[:n]
}

// lrd is Definition 6 over reachability distances (Definition 5).
func (o *oracle) lrd(p, k int) float64 {
	nn := o.neighborhood(p, k)
	var sum float64
	for _, nb := range nn {
		sum += math.Max(o.kdist(nb.Index, k), nb.Dist)
	}
	return float64(len(nn)) / sum
}

// lof is Definition 7.
func (o *oracle) lof(p, k int) float64 {
	nn := o.neighborhood(p, k)
	lp := o.lrd(p, k)
	var sum float64
	for _, nb := range nn {
		sum += o.lrd(nb.Index, k) / lp
	}
	return sum / float64(len(nn))
}

// finishTrace checks the span tree and writes the spans out.
func finishTrace(o *options, rep *report) error {
	if err := rep.spans.check(); err != nil {
		rep.mismatch("trace: %v", err)
	}
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", o.workdir, o.workload, o.seed)
	if err := rep.spans.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.detail["spans_file"] = path
	return nil
}
