package geom

import "math"

// kernelKind discriminates the metric fast paths a Kernel dispatches over.
// Resolving the metric's dynamic type once per kernel — instead of once per
// candidate inside an index scan — is the point of this type: the scan loop
// pays one integer switch per distance instead of an interface call, and the
// row is addressed by raw offset into the store's contiguous block instead
// of through a freshly built slice header.
type kernelKind uint8

const (
	kernGeneric kernelKind = iota
	kernEuclidean
	kernManhattan
	kernChebyshev
	kernMinkowski
	kernWeighted
)

// Kernel is a resolved distance function over a store: metric dispatch
// hoisted out of the scan loop, rows addressed by (index × stride) offsets.
// The kernel reads the store through its pointer on every call, so it stays
// valid across appends that re-back the coordinate block (the dynamic index
// grows its store between queries).
//
// Every fast path computes, term for term in ascending dimension order, the
// exact arithmetic of the corresponding Metric.Distance — the refactor from
// per-row slices to strided offsets is proven bit-identical by the oracle
// tests — and the generic path falls back to the Metric interface. All
// metrics in this package are symmetric (the metric axioms require it), so
// the kernel fixes one canonical argument order.
type Kernel struct {
	s    *Store
	m    Metric
	kind kernelKind
	w    []float64 // weighted Euclidean weights
	p    float64   // Minkowski order
}

// NewKernel resolves m over s. A nil metric resolves to Euclidean.
func NewKernel(s *Store, m Metric) Kernel {
	if m == nil {
		m = Euclidean{}
	}
	k := Kernel{s: s, m: m, kind: kernGeneric}
	switch mm := m.(type) {
	case Euclidean:
		k.kind = kernEuclidean
	case Manhattan:
		k.kind = kernManhattan
	case Chebyshev:
		k.kind = kernChebyshev
	case Minkowski:
		k.kind = kernMinkowski
		k.p = mm.P
	case *WeightedEuclidean:
		k.kind = kernWeighted
		k.w = mm.weights
	}
	return k
}

// Metric returns the metric the kernel resolves.
func (k *Kernel) Metric() Metric { return k.m }

// Dist returns the distance between row i of the kernel's store and q.
// It is the hot inner loop of every index structure.
func (k *Kernel) Dist(i int, q Point) float64 {
	s := k.s
	off := i * s.stride
	c := s.coords
	switch k.kind {
	case kernEuclidean:
		var sum float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			d := v - c[off+j]
			sum += d * d
		}
		return math.Sqrt(sum)
	case kernManhattan:
		var sum float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			sum += math.Abs(v - c[off+j])
		}
		return sum
	case kernChebyshev:
		var mx float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			if d := math.Abs(v - c[off+j]); d > mx {
				mx = d
			}
		}
		return mx
	case kernMinkowski:
		var sum float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			sum += math.Pow(math.Abs(v-c[off+j]), k.p)
		}
		return math.Pow(sum, 1/k.p)
	case kernWeighted:
		var sum float64
		_ = c[off+len(q)-1]
		_ = k.w[len(q)-1]
		for j, v := range q {
			d := v - c[off+j]
			sum += k.w[j] * d * d
		}
		return math.Sqrt(sum)
	default:
		return k.m.Distance(q, k.s.At(i))
	}
}

// SqDist returns the squared L2 distance between row i and q for Euclidean
// kernels; other kinds fall back to squaring Dist. Index pruning paths that
// compare against squared bounds use it to skip the square root.
func (k *Kernel) SqDist(i int, q Point) float64 {
	if k.kind == kernEuclidean {
		s := k.s
		off := i * s.stride
		c := s.coords
		var sum float64
		_ = c[off+len(q)-1]
		for j, v := range q {
			d := v - c[off+j]
			sum += d * d
		}
		return sum
	}
	d := k.Dist(i, q)
	return d * d
}

// SqDist returns the squared L2 distance between two points. It remains the
// slice-to-slice entry point for callers that do not hold a Store; the
// strided equivalent is Kernel.SqDist.
func SqDist(p, q Point) float64 {
	var s float64
	_ = q[len(p)-1]
	for i, v := range p {
		d := v - q[i]
		s += d * d
	}
	return s
}

// rectSlack shrinks every MinDistToRect bound by a relative 2⁻³²: far more
// than the few ulps by which a compiler fusing multiply-adds in one of the
// bound and Dist but not the other could move them apart, far less than
// any pruning decision notices.
const rectSlack = 1 - 0x1p-32

// MinDistToRect returns a lower bound on Dist(i, q) for every row i whose
// coordinates lie inside the axis-aligned box [lo, hi]. It holds under
// floating point, not just over the reals: each fast path computes the
// per-axis gap to the box (zero inside it) with the operations Dist uses
// for the per-axis term, in the same ascending dimension order; since
// lo[j] ≤ c[j] ≤ hi[j] for every row coordinate c[j], monotone rounding
// keeps each gap term no larger than the row's term, and the sum, square
// root and maximum preserve that order (DESIGN.md §9.1). Metrics without
// such an argument — Minkowski, whose powers are not correctly rounded,
// and generic metrics — return 0: no pruning, still exact.
func (k *Kernel) MinDistToRect(q, lo, hi Point) float64 {
	var lb float64
	switch k.kind {
	case kernEuclidean:
		var sum float64
		for j, v := range q {
			d := rectGap(v, lo[j], hi[j])
			sum += d * d
		}
		lb = math.Sqrt(sum)
	case kernWeighted:
		var sum float64
		for j, v := range q {
			d := rectGap(v, lo[j], hi[j])
			sum += k.w[j] * d * d
		}
		lb = math.Sqrt(sum)
	case kernManhattan:
		for j, v := range q {
			lb += rectGap(v, lo[j], hi[j])
		}
	case kernChebyshev:
		for j, v := range q {
			if d := rectGap(v, lo[j], hi[j]); d > lb {
				lb = d
			}
		}
	default:
		return 0
	}
	return lb * rectSlack
}

// rectGap is the distance from coordinate v to the interval [lo, hi].
func rectGap(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	}
	return 0
}
