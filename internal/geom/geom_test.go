package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatalf("Clone shares storage: p=%v", p)
	}
	if !p.Equal(Point{1, 2, 3}) {
		t.Fatalf("p mutated: %v", p)
	}
}

func TestPointEqual(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{1, 2}, Point{1, 2}, true},
		{Point{1, 2}, Point{1, 3}, false},
		{Point{1, 2}, Point{1, 2, 3}, false},
		{Point{}, Point{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{1, 2}).Valid() {
		t.Error("finite point reported invalid")
	}
	if (Point{1, math.NaN()}).Valid() {
		t.Error("NaN point reported valid")
	}
	if (Point{math.Inf(1), 0}).Valid() {
		t.Error("Inf point reported valid")
	}
}

func TestNewPointsAndAppend(t *testing.T) {
	ps := NewPoints(2, 4)
	if ps.Len() != 0 {
		t.Fatalf("new Points not empty: %d", ps.Len())
	}
	if err := ps.Append(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Append(Point{3, 4}); err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 2 || ps.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", ps.Len(), ps.Dim())
	}
	if !ps.At(1).Equal(Point{3, 4}) {
		t.Fatalf("At(1)=%v", ps.At(1))
	}
}

func TestAppendDimensionMismatch(t *testing.T) {
	ps := NewPoints(2, 0)
	if err := ps.Append(Point{1, 2, 3}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestAppendRejectsNaN(t *testing.T) {
	ps := NewPoints(2, 0)
	if err := ps.Append(Point{1, math.NaN()}); err == nil {
		t.Fatal("expected ErrInvalidCoord")
	}
}

func TestFromSlice(t *testing.T) {
	ps, err := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 2 {
		t.Fatalf("Len=%d", ps.Len())
	}
	if _, err := FromSlice([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := FromSlice([]float64{1, math.Inf(-1)}, 2); err == nil {
		t.Fatal("expected non-finite error")
	}
	if _, err := FromSlice(nil, 0); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestFromRows(t *testing.T) {
	ps, err := FromRows([]Point{{0, 0}, {1, 1}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 3 {
		t.Fatalf("Len=%d", ps.Len())
	}
	if _, err := FromRows([]Point{{0, 0}, {1}}); err == nil {
		t.Fatal("expected mismatch error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestSubsetAndClone(t *testing.T) {
	ps, _ := FromRows([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	sub := ps.Subset([]int{3, 1})
	if sub.Len() != 2 || !sub.At(0).Equal(Point{3, 3}) || !sub.At(1).Equal(Point{1, 1}) {
		t.Fatalf("Subset wrong: %v %v", sub.At(0), sub.At(1))
	}
	cl := ps.Clone()
	cl.coords[0] = 42
	if ps.coords[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestBounds(t *testing.T) {
	ps, _ := FromRows([]Point{{1, -5}, {-2, 7}, {0, 0}})
	lo, hi := ps.Bounds()
	if !lo.Equal(Point{-2, -5}) || !hi.Equal(Point{1, 7}) {
		t.Fatalf("Bounds=%v %v", lo, hi)
	}
}

func TestBoundsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPoints(2, 0).Bounds()
}

func TestRowCopies(t *testing.T) {
	ps, _ := FromRows([]Point{{1, 2}})
	r := ps.Row(0, nil)
	r[0] = 99
	if ps.At(0)[0] != 1 {
		t.Fatal("Row aliases storage")
	}
	dst := make(Point, 2)
	if got := ps.Row(0, dst); &got[0] != &dst[0] {
		t.Fatal("Row did not use dst")
	}
}

func TestMetricsKnownValues(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if d := (Euclidean{}).Distance(p, q); math.Abs(d-5) > 1e-12 {
		t.Errorf("euclidean=%v want 5", d)
	}
	if d := (Manhattan{}).Distance(p, q); math.Abs(d-7) > 1e-12 {
		t.Errorf("manhattan=%v want 7", d)
	}
	if d := (Chebyshev{}).Distance(p, q); math.Abs(d-4) > 1e-12 {
		t.Errorf("chebyshev=%v want 4", d)
	}
	mk, err := NewMinkowski(2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mk.Distance(p, q); math.Abs(d-5) > 1e-12 {
		t.Errorf("minkowski(2)=%v want 5", d)
	}
}

func TestNewMinkowskiRejectsBadOrder(t *testing.T) {
	for _, p := range []float64{0.5, 0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewMinkowski(p); err == nil {
			t.Errorf("NewMinkowski(%v) accepted", p)
		}
	}
}

func TestMetricByName(t *testing.T) {
	for _, name := range []string{"euclidean", "l2", "", "manhattan", "l1", "chebyshev", "linf"} {
		if _, err := MetricByName(name); err != nil {
			t.Errorf("MetricByName(%q): %v", name, err)
		}
	}
	if _, err := MetricByName("cosine"); err == nil {
		t.Error("unknown metric accepted")
	}
}

// metricAxioms checks non-negativity, symmetry, identity and the triangle
// inequality on random triples.
func metricAxioms(t *testing.T, m Metric) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		dim := 1 + r.Intn(6)
		mk := func() Point {
			p := make(Point, dim)
			for i := range p {
				p[i] = r.NormFloat64() * 10
			}
			return p
		}
		a, b, c := mk(), mk(), mk()
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if dab < 0 || math.Abs(dab-dba) > 1e-9 {
			return false
		}
		if m.Distance(a, a) > 1e-12 {
			return false
		}
		// triangle inequality with numeric slack
		if m.Distance(a, c) > dab+m.Distance(b, c)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("%s axioms violated: %v", m.Name(), err)
	}
}

func TestMetricAxiomsProperty(t *testing.T) {
	mk, _ := NewMinkowski(3)
	for _, m := range []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, mk} {
		metricAxioms(t, m)
	}
}

func TestSqDistMatchesEuclidean(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true // avoid overflow in d*d; not a property violation
			}
		}
		a, b := Point{ax, ay}, Point{bx, by}
		d := (Euclidean{}).Distance(a, b)
		return math.Abs(d*d-SqDist(a, b)) <= 1e-6*(1+math.Abs(d*d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinDistToRect(t *testing.T) {
	lo, hi := Point{0, 0}, Point{2, 2}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},            // inside
		{Point{3, 1}, 1},            // right of box
		{Point{-1, -1}, math.Sqrt2}, // diagonal corner
		{Point{1, 5}, 3},            // above
	}
	for _, c := range cases {
		if got := MinDistToRect(Euclidean{}, c.p, lo, hi); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDistToRect(%v)=%v want %v", c.p, got, c.want)
		}
	}
	// Generic path via Minkowski must match Euclidean for p=2.
	mk, _ := NewMinkowski(2)
	for _, c := range cases {
		if got := MinDistToRect(mk, c.p, lo, hi); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("generic MinDistToRect(%v)=%v want %v", c.p, got, c.want)
		}
	}
}

func TestMaxDistToRect(t *testing.T) {
	lo, hi := Point{0, 0}, Point{2, 2}
	if got := MaxDistToRect(Euclidean{}, Point{-1, -1}, lo, hi); math.Abs(got-3*math.Sqrt2) > 1e-12 {
		t.Errorf("euclidean max=%v", got)
	}
	if got := MaxDistToRect(Manhattan{}, Point{1, 1}, lo, hi); math.Abs(got-2) > 1e-12 {
		t.Errorf("manhattan max=%v", got)
	}
	if got := MaxDistToRect(Chebyshev{}, Point{3, 1}, lo, hi); math.Abs(got-3) > 1e-12 {
		t.Errorf("chebyshev max=%v", got)
	}
}

func TestMaxDistToRectPanicsOnUnsupported(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mk, _ := NewMinkowski(3)
	MaxDistToRect(mk, Point{0}, Point{0}, Point{1})
}

// MaxDistToRect must upper-bound the distance from p to any point inside
// the rectangle.
func TestMaxDistToRectIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []Metric{Euclidean{}, Manhattan{}, Chebyshev{}} {
		for iter := 0; iter < 300; iter++ {
			dim := 1 + rng.Intn(4)
			lo := make(Point, dim)
			hi := make(Point, dim)
			in := make(Point, dim)
			p := make(Point, dim)
			for i := 0; i < dim; i++ {
				a, b := rng.NormFloat64()*5, rng.NormFloat64()*5
				if a > b {
					a, b = b, a
				}
				lo[i], hi[i] = a, b
				in[i] = a + rng.Float64()*(b-a)
				p[i] = rng.NormFloat64() * 10
			}
			bound := MaxDistToRect(m, p, lo, hi)
			if actual := m.Distance(p, in); bound < actual-1e-9 {
				t.Fatalf("%s: bound %v below actual %v", m.Name(), bound, actual)
			}
		}
	}
}

// MinDistToRect must lower-bound the distance from p to any point inside the
// rectangle — the property the kNN tree pruning relies on.
func TestMinDistToRectIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []Metric{Euclidean{}, Manhattan{}, Chebyshev{}} {
		for iter := 0; iter < 300; iter++ {
			dim := 1 + rng.Intn(4)
			lo := make(Point, dim)
			hi := make(Point, dim)
			in := make(Point, dim)
			p := make(Point, dim)
			for i := 0; i < dim; i++ {
				a, b := rng.NormFloat64()*5, rng.NormFloat64()*5
				if a > b {
					a, b = b, a
				}
				lo[i], hi[i] = a, b
				in[i] = a + rng.Float64()*(b-a)
				p[i] = rng.NormFloat64() * 10
			}
			bound := MinDistToRect(m, p, lo, hi)
			if actual := m.Distance(p, in); bound > actual+1e-9 {
				t.Fatalf("%s: bound %v exceeds actual %v (p=%v lo=%v hi=%v in=%v)",
					m.Name(), bound, actual, p, lo, hi, in)
			}
		}
	}
}

func TestWeightedEuclideanKnownValues(t *testing.T) {
	m, err := NewWeightedEuclidean([]float64{4, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// sqrt(4·3² + 0.25·4²) = sqrt(36+4) = sqrt(40)
	if d := m.Distance(Point{0, 0}, Point{3, 4}); math.Abs(d-math.Sqrt(40)) > 1e-12 {
		t.Fatalf("d=%v", d)
	}
	if m.Name() != "weighted-euclidean" {
		t.Fatalf("name=%q", m.Name())
	}
	// Zero weight ignores a dimension.
	m2, err := NewWeightedEuclidean([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := m2.Distance(Point{100, 0}, Point{-100, 3}); d != 3 {
		t.Fatalf("d=%v", d)
	}
}

func TestNewWeightedEuclideanValidation(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{-1, 1},
		{math.NaN()},
		{math.Inf(1)},
		{0, 0},
	}
	for i, ws := range bad {
		if _, err := NewWeightedEuclidean(ws); err == nil {
			t.Errorf("case %d accepted: %v", i, ws)
		}
	}
	// The weight slice must be copied.
	ws := []float64{1, 2}
	m, err := NewWeightedEuclidean(ws)
	if err != nil {
		t.Fatal(err)
	}
	ws[0] = 99
	if d := m.Distance(Point{0, 0}, Point{1, 0}); d != 1 {
		t.Fatalf("weights not copied: d=%v", d)
	}
}

func TestWeightedEuclideanAxioms(t *testing.T) {
	m, err := NewWeightedEuclidean([]float64{2, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the shared axiom checker via fixed-dimension points.
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 300; iter++ {
		mk := func() Point {
			return Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		a, b, c := mk(), mk(), mk()
		if d := m.Distance(a, b); d < 0 || math.Abs(d-m.Distance(b, a)) > 1e-9 {
			t.Fatal("symmetry/non-negativity violated")
		}
		if m.Distance(a, a) > 1e-12 {
			t.Fatal("identity violated")
		}
		if m.Distance(a, c) > m.Distance(a, b)+m.Distance(b, c)+1e-9 {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestWeightedRectBounds(t *testing.T) {
	m, err := NewWeightedEuclidean([]float64{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := Point{0, 0}, Point{2, 2}
	// Point left of the box: gap 1 on x only → sqrt(4·1)=2.
	if got := MinDistToRect(m, Point{-1, 1}, lo, hi); math.Abs(got-2) > 1e-12 {
		t.Fatalf("min=%v", got)
	}
	// Farthest corner from (-1,1) is (2,0) or (2,2): sqrt(4·9+1) = sqrt(37).
	if got := MaxDistToRect(m, Point{-1, 1}, lo, hi); math.Abs(got-math.Sqrt(37)) > 1e-12 {
		t.Fatalf("max=%v", got)
	}
	// Bound properties against points inside the box.
	rng := rand.New(rand.NewSource(20))
	for iter := 0; iter < 200; iter++ {
		p := Point{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		in := Point{rng.Float64() * 2, rng.Float64() * 2}
		d := m.Distance(p, in)
		if MinDistToRect(m, p, lo, hi) > d+1e-9 {
			t.Fatal("min bound exceeds actual")
		}
		if MaxDistToRect(m, p, lo, hi) < d-1e-9 {
			t.Fatal("max bound below actual")
		}
	}
}

func TestAxisGapLowerBound(t *testing.T) {
	if got := AxisGapLowerBound(Euclidean{}, 0, -3); got != 3 {
		t.Fatalf("euclidean gap=%v", got)
	}
	wm, err := NewWeightedEuclidean([]float64{4, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if got := AxisGapLowerBound(wm, 0, 3); got != 6 {
		t.Fatalf("weighted axis0 gap=%v", got)
	}
	if got := AxisGapLowerBound(wm, 1, 4); got != 2 {
		t.Fatalf("weighted axis1 gap=%v", got)
	}
	// Unknown metric: conservative zero (no pruning).
	if got := AxisGapLowerBound(fakeMetric{}, 0, 5); got != 0 {
		t.Fatalf("unknown metric gap=%v", got)
	}
}

type fakeMetric struct{}

func (fakeMetric) Distance(p, q Point) float64 { return 0 }
func (fakeMetric) Name() string                { return "fake" }

// Kernel.MinDistToRect must lower-bound Kernel.Dist exactly, with no
// tolerance, for every row inside the box: the dynamic index's reverse
// queries skip a subtree on the strength of it. Rows and queries share a
// coarse grid, so coordinates often sit exactly on the box faces.
func TestKernelMinDistToRectBoundsDist(t *testing.T) {
	w, err := NewWeightedEuclidean([]float64{0.3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	coord := func() float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(9)) / 3
		}
		return rng.NormFloat64() * 3
	}
	for _, m := range []Metric{Euclidean{}, Manhattan{}, Chebyshev{}, w, mk} {
		for iter := 0; iter < 200; iter++ {
			s := NewPoints(3, 0)
			lo, hi := Point{math.Inf(1), math.Inf(1), math.Inf(1)}, Point{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
			for i := 0; i < 1+rng.Intn(6); i++ {
				p := Point{coord(), coord(), coord()}
				if err := s.Append(p); err != nil {
					t.Fatal(err)
				}
				for j, v := range p {
					lo[j], hi[j] = math.Min(lo[j], v), math.Max(hi[j], v)
				}
			}
			k := NewKernel(s, m)
			q := Point{coord(), coord(), coord()}
			bound := k.MinDistToRect(q, lo, hi)
			if _, ok := m.(Minkowski); ok && bound != 0 {
				t.Fatalf("minkowski bound = %v, want 0", bound)
			}
			for i := 0; i < s.Len(); i++ {
				if d := k.Dist(i, q); bound > d {
					t.Fatalf("%s: bound %v exceeds Dist %v (q=%v row=%v lo=%v hi=%v)", m.Name(), bound, d, q, s.At(i), lo, hi)
				}
			}
		}
	}
}
