package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lof/internal/geom"
)

// benchPoints draws n points from two Gaussian clusters, the workload
// shape the rest of the repo benchmarks with.
func benchPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		off := 0.0
		if i%2 == 1 {
			off = 10
		}
		for d := range p {
			p[d] = off + rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// clusteredPoints draws n points from 8 Gaussian clusters at corners of
// the cube [20, 80]^dim, with spreads growing from 0.4 to about 6.8, plus
// 1% uniform noise over [0, 100]^dim. The noise points are outliers with
// k-distances far above the clusters' — the shape that made a single
// reverse-query radius (the largest live k-distance) expensive.
func clusteredPoints(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		if rng.Float64() < 0.01 {
			for d := range p {
				p[d] = 100 * rng.Float64()
			}
		} else {
			c := rng.Intn(8)
			sigma := 0.4 * math.Pow(1.5, float64(c))
			for d := range p {
				p[d] = 20 + 60*float64(c>>(d%3)&1) + sigma*rng.NormFloat64()
			}
		}
		pts[i] = p
	}
	return pts
}

// primedPipeline returns a pipeline whose sliding window is full, so the
// timed region measures steady-state churn (every insert also expires),
// not the cheap fill-up phase.
func primedPipeline(tb testing.TB, window, dim int, gen func(*rand.Rand, int, int) []geom.Point) *Pipeline {
	tb.Helper()
	p, err := New(Config{Dim: dim, MinPts: 10, MaxPoints: window})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	prime := gen(rng, window, dim)
	for off := 0; off < len(prime); off += 128 {
		end := off + 128
		if end > len(prime) {
			end = len(prime)
		}
		if _, err := p.Apply(Update{Inserts: prime[off:end]}); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// ingest applies the given number of pushes, each the next batch of fresh
// (whose length is a multiple of batch, reused from its start once
// exhausted), and returns the reverse-query work per insert. The
// two detectors apply identical op lists, so one of them tells the work.
func ingest(tb testing.TB, p *Pipeline, fresh []geom.Point, batch, pushes int) (evalsPerInsert, hitsPerInsert float64) {
	evals0, hits0 := p.a.Work()
	for i := 0; i < pushes; i++ {
		off := i * batch % len(fresh)
		if _, err := p.Apply(Update{Inserts: fresh[off : off+batch]}); err != nil {
			tb.Fatal(err)
		}
	}
	evals, hits := p.a.Work()
	n := float64(pushes * batch)
	return float64(evals-evals0) / n, float64(hits-hits0) / n
}

// BenchmarkStreamIngest measures steady-state ingestion: one Apply batch
// per op against a full sliding window, so each batch also expires as
// many points and republishes the epoch. The custom inserts/s metric is
// the sustained ingest rate the streaming serving tier can promise;
// dist-evals/insert and reverse-hits/insert count the reverse-neighbor
// queries' distance evaluations and results. The two-Gaussian cases hold
// no outliers; the clustered cases carry 1% noise, like the stream-window
// benchmark workload.
func BenchmarkStreamIngest(b *testing.B) {
	const dim = 4
	// The two-Gaussian cases re-insert one batch on every op, so their
	// window fills with copies of it; the clustered ones stream 8 windows'
	// worth of distinct points.
	for _, c := range []struct {
		window, batch, fresh int
		gen                  func(*rand.Rand, int, int) []geom.Point
		suffix               string
	}{
		{256, 32, 32, benchPoints, ""},
		{1024, 32, 32, benchPoints, ""},
		{512, 8, 8 * 512, clusteredPoints, "/clustered"},
		{1024, 8, 8 * 1024, clusteredPoints, "/clustered"},
	} {
		b.Run(fmt.Sprintf("window=%d/batch=%d%s", c.window, c.batch, c.suffix), func(b *testing.B) {
			p := primedPipeline(b, c.window, dim, c.gen)
			rng := rand.New(rand.NewSource(29))
			fresh := c.gen(rng, c.fresh, dim)
			b.ResetTimer()
			evals, hits := ingest(b, p, fresh, c.batch, b.N)
			b.ReportMetric(float64(b.N*c.batch)/b.Elapsed().Seconds(), "inserts/s")
			b.ReportMetric(evals, "dist-evals/insert")
			b.ReportMetric(hits, "reverse-hits/insert")
		})
	}
}

// Reverse-query work on TestReverseWorkPinned's workload, in distance
// evaluations per insert. globalRadiusEvalsPerInsert is what the earlier
// design spent there: one range query per reverse query at the largest
// live k-distance, over a plain k-d tree base, each candidate then
// filtered by its own k-distance (same rebuild policy, counted over the
// base's leaf scans and the overlay scan). reverseEvalsPerInsert is the
// per-node-maximum pruning's count, recorded when it was introduced.
const (
	globalRadiusEvalsPerInsert = 16688.46
	reverseEvalsPerInsert      = 10016.14
)

// TestReverseWorkPinned is the deterministic gate on the streaming write
// path's cost in the paper's own unit, distance evaluations: at a fixed
// seed, window 512 and pushes of 8 over clustered data with 1% noise, the
// reverse queries must spend fewer evaluations per insert than the global
// radius did, and no more than 2% above the recorded count. A change that
// lowers the count should lower the record with it.
func TestReverseWorkPinned(t *testing.T) {
	const dim, window, batch = 4, 512, 8
	p := primedPipeline(t, window, dim, clusteredPoints)
	fresh := clusteredPoints(rand.New(rand.NewSource(29)), 8*window, dim)
	evals, hits := ingest(t, p, fresh, batch, 64)
	t.Logf("dist-evals/insert %.2f, reverse-hits/insert %.2f", evals, hits)
	if evals >= globalRadiusEvalsPerInsert {
		t.Errorf("dist-evals/insert = %.2f, want below the global radius's %.2f", evals, globalRadiusEvalsPerInsert)
	}
	if evals > reverseEvalsPerInsert*1.02 {
		t.Errorf("dist-evals/insert = %.2f, more than 2%% above the recorded %.2f", evals, reverseEvalsPerInsert)
	}
}

// BenchmarkStreamScore measures out-of-sample scoring against a published
// epoch, the read path that must stay bounded while ingestion churns.
func BenchmarkStreamScore(b *testing.B) {
	const dim = 4
	for _, window := range []int{256, 1024} {
		b.Run(fmt.Sprintf("window=%d/batch=16", window), func(b *testing.B) {
			p := primedPipeline(b, window, dim, benchPoints)
			rng := rand.New(rand.NewSource(31))
			queries := benchPoints(rng, 16, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.ScoreBatch(queries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
