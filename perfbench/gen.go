package main

import "math/rand"

// dim is the dimensionality of every workload's points.
const dim = 4

// generator draws points from 8 Gaussian clusters of different spread plus
// uniform noise over a box enclosing them. Differing spreads give the
// local-density contrast LOF exists for (paper Sec. 3); the noise supplies
// outliers. The layout is fixed and the seed draws the sample, so every
// seed poses the same problem: a run's cost varies with the code, not with
// where one seed happened to put its clusters.
type generator struct {
	centers [8][dim]float64
	sigma   [8]float64
}

// Noise box bounds: the cluster centers lie in [20, 80] per axis.
const noiseLo, noiseHi = 0.0, 100.0

func newGenerator() *generator {
	g := &generator{}
	s := 0.4
	c := 0
	// The centers are the even-parity corners of the cube [20, 80]^4,
	// pairwise at least 60·√2 apart.
	for corner := 0; corner < 1<<dim; corner++ {
		parity := 0
		for j := 0; j < dim; j++ {
			parity ^= corner >> j & 1
		}
		if parity != 0 {
			continue
		}
		for j := 0; j < dim; j++ {
			g.centers[c][j] = 20 + 60*float64(corner>>j&1)
		}
		g.sigma[c] = s
		s *= 1.5 // spreads from 0.4 to about 6.8
		c++
	}
	return g
}

// point draws one point; with probability noise it is uniform noise,
// otherwise a member of a uniformly chosen cluster.
func (g *generator) point(r *rand.Rand, noise float64) []float64 {
	p := make([]float64, dim)
	if r.Float64() < noise {
		for j := range p {
			p[j] = noiseLo + (noiseHi-noiseLo)*r.Float64()
		}
		return p
	}
	c := r.Intn(len(g.centers))
	for j := range p {
		p[j] = g.centers[c][j] + g.sigma[c]*r.NormFloat64()
	}
	return p
}

func (g *generator) points(r *rand.Rand, n int, noise float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = g.point(r, noise)
	}
	return out
}

// Noise shares: the fitted data carries 1% noise, score queries 10%.
const (
	dataNoise  = 0.01
	queryNoise = 0.10
)

// streams derives independent sources of one workload's inputs from the
// run seed: the fitted data, the queries and the oracle's sample each get
// their own, so changing one size leaves the others unchanged.
type streams struct {
	gen     *generator
	data    *rand.Rand
	queries *rand.Rand
	sample  *rand.Rand
}

func newStreams(seed int64) streams {
	return streams{
		gen:     newGenerator(),
		data:    rand.New(rand.NewSource(seed*7919 + 1)),
		queries: rand.New(rand.NewSource(seed*7919 + 2)),
		sample:  rand.New(rand.NewSource(seed*7919 + 3)),
	}
}

// scoreBatch is one request's worth of queries.
type scoreBatch struct {
	queries [][]float64
	pruned  bool // sent with ?mode=pruned
}

// Score request shape: 8 queries per request, every fifth request pruned.
// Spacing the pruned requests evenly keeps the mix of any run of
// consecutive requests at 20%, so per-query costs do not depend on where a
// timed loop happens to stop.
const (
	batchSize   = 8
	prunedEvery = 5
)

// batchPool draws the distinct score batches a run cycles through.
func (s streams) batchPool(n int) []scoreBatch {
	pool := make([]scoreBatch, n)
	for i := range pool {
		pool[i] = scoreBatch{
			queries: s.gen.points(s.queries, batchSize, queryNoise),
			pruned:  i%prunedEvery == 0,
		}
	}
	return pool
}
