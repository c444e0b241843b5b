// Package incremental maintains exact LOF values under point insertions
// and deletions — the paper's second "ongoing work" direction ("to further
// improve the performance of LOF computation"). Instead of recomputing the
// whole database, an update touches only the affected neighborhoods: the
// changed point's reverse k-nearest neighbors (whose k-distances shift),
// the points whose local reachability density depends on those
// k-distances, and the points whose LOF depends on those densities. All
// values stay exactly equal to a from-scratch batch computation, which the
// tests verify after every update.
//
// Neighborhood and reverse-neighbor queries run through a dynamic spatial
// index (internal/index/dynamic: k-d tree base plus overlay and
// tombstones), so the cost of one update tracks the size of the affected
// neighborhood rather than the dataset. The index also holds every live
// point's k-distance, which is what makes reverse k-nearest-neighbor sets
// — the points o with d(o,p) ≤ kdist(o) — a query of their own: each base
// node carries the largest k-distance under it, so a subtree whose box
// lies farther from p than that maximum is skipped. An outlier's large
// k-distance therefore costs only the subtrees it lies in, not every
// query (see DESIGN.md §9.1).
//
// The sets an update touches are kept in detector-owned dense scratch:
// epoch-stamped per-slot marks plus index lists, reused across updates.
// Every density and LOF refresh depends only on values settled before its
// phase starts, so the visit order does not change a single bit.
package incremental

import (
	"fmt"
	"math"

	"lof/internal/core"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/dynamic"
)

// Detector is a dynamic (insert/delete) LOF maintenance structure. It is
// not safe for concurrent mutation; read-only scoring against a quiescent
// detector is safe from many goroutines via ScoreAtCursor (the epoch layer
// in internal/stream builds exactly that discipline on top).
type Detector struct {
	minPts int
	metric geom.Metric

	// ix owns the point storage and tombstones; slot indices are stable
	// across all mutations and compact only via Compact.
	ix *dynamic.Index
	// cur is the writer-owned query cursor over ix.
	cur index.Cursor

	// nn[i] is point i's MinPts-distance neighborhood (with ties), sorted
	// by (distance, index). Empty until at least minPts+1 points exist.
	// kdist is ix's view of the k-distances, which ix indexes for reverse
	// queries: written only through ix.SetKDist, re-fetched after every
	// ix.Insert and ix.Compact.
	nn    [][]index.Neighbor
	kdist []float64
	lrd   []float64
	lof   []float64

	// lastAffected records how many points the most recent update
	// touched, for observability and the locality tests.
	lastAffected int

	// revEvals and revHits count, since New, the distances the reverse
	// queries evaluated and the reverse neighbors they returned.
	revEvals, revHits int64

	// Per-update scratch, reused so an update allocates nothing once warm.
	// scratch stages one neighborhood per recomputeNeighborhood call; rev
	// holds one reverse query's result. nbChanged and kdChanged list the
	// points whose neighborhood or k-distance an update changed; lrdDirty,
	// lrdChanged and lofDirty are propagate's sets. A slot is in the set
	// being built when stamp[slot] == epoch.
	scratch    []index.Neighbor
	rev        []int
	nbChanged  []int
	kdChanged  []int
	lrdDirty   []int
	lrdChanged []int
	lofDirty   []int
	stamp      []uint32
	epoch      uint32
}

// New creates an empty incremental detector. dim is the dimensionality of
// all future points; minPts as in the batch algorithm.
func New(dim, minPts int, m geom.Metric) (*Detector, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("incremental: dim must be positive, got %d", dim)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("incremental: MinPts must be positive, got %d", minPts)
	}
	if m == nil {
		m = geom.Euclidean{}
	}
	ix := dynamic.New(dim, m)
	return &Detector{minPts: minPts, metric: m, ix: ix, cur: ix.NewCursor()}, nil
}

// Len returns the number of live (inserted and not deleted) points.
func (d *Detector) Len() int { return d.ix.Len() }

// Size returns the number of slots ever allocated, including tombstones;
// point indices run over [0, Size).
func (d *Detector) Size() int { return d.ix.Size() }

// Dim returns the dimensionality of the detector's points.
func (d *Detector) Dim() int { return d.ix.Dim() }

// MinPts returns the MinPts value the detector maintains LOFs at.
func (d *Detector) MinPts() int { return d.minPts }

// Metric returns the detector's distance metric.
func (d *Detector) Metric() geom.Metric { return d.metric }

// At returns a view of slot i's coordinates (deleted slots keep their last
// coordinates); callers must not modify it.
func (d *Detector) At(i int) geom.Point { return d.ix.At(i) }

// Deleted reports whether index i does not hold a live point: removed
// points and out-of-range indices both report true.
func (d *Detector) Deleted(i int) bool { return d.ix.Deleted(i) }

// LastAffected returns how many points the most recent Insert or Delete
// updated (neighborhood, density or LOF) — including the point inserted
// or deleted by that update.
func (d *Detector) LastAffected() int { return d.lastAffected }

// Work returns the cumulative cost of the detector's reverse-neighbor
// queries since New: the distances they evaluated and the reverse
// neighbors they found. Both are deterministic for a given op sequence.
func (d *Detector) Work() (distEvals, hits int64) { return d.revEvals, d.revHits }

// LOF returns point i's current LOF (NaN for deleted points and
// out-of-range indices, matching the documented "no such live point"
// behavior instead of panicking). Before minPts+1 points exist, every LOF
// is 1 (no meaningful neighborhood).
func (d *Detector) LOF(i int) float64 {
	if d.Deleted(i) {
		return math.NaN()
	}
	return d.lof[i]
}

// LOFs returns a copy of all current LOF values, indexed by insertion
// order; deleted slots hold NaN.
func (d *Detector) LOFs() []float64 {
	out := make([]float64, len(d.lof))
	for i := range d.lof {
		out[i] = d.LOF(i)
	}
	return out
}

// Insert adds p and updates all affected LOF values. It returns the new
// point's index. The coordinates are copied on insert (geom.Points.Append
// clones into the detector's storage), so the caller may reuse or mutate
// p's backing array after Insert returns without affecting any score.
func (d *Detector) Insert(p geom.Point) (int, error) {
	i, err := d.ix.Insert(p)
	if err != nil {
		return 0, err
	}
	d.kdist = d.ix.KDists()
	d.nn = append(d.nn, nil)
	d.lrd = append(d.lrd, math.Inf(1))
	d.lof = append(d.lof, 1)
	d.stamp = append(d.stamp, 0)

	n := d.ix.Len()
	if n <= d.minPts+1 {
		// Not enough points for incremental maintenance: either no
		// MinPts-neighborhood exists yet, or neighborhoods just became
		// defined for everyone. Rebuild (cheap at these sizes).
		d.lastAffected = n
		d.rebuildAll()
		return i, nil
	}

	// 1. The new point's neighborhood.
	d.recomputeNeighborhood(i)

	// 2. Reverse neighbors: points q whose MinPts-distance neighborhood
	// absorbs p (d(q,p) ≤ kdist(q)). Their neighborhoods — and possibly
	// k-distances — change.
	d.nbChanged = append(d.nbChanged[:0], i)
	d.kdChanged = append(d.kdChanged[:0], i)
	d.refreshReverse(i)
	d.propagate()
	return i, nil
}

// Delete removes point i, updating all affected LOF values. Deleted slots
// keep their index (subsequent points do not shift) and report NaN; the
// raw LOF slot is also set to NaN so no stale pre-delete value survives.
func (d *Detector) Delete(i int) error {
	if i < 0 || i >= d.ix.Size() {
		return fmt.Errorf("incremental: point %d out of range [0, %d)", i, d.ix.Size())
	}
	if d.ix.Deleted(i) {
		return fmt.Errorf("incremental: point %d already deleted", i)
	}
	if err := d.ix.Delete(i); err != nil {
		return err
	}
	d.nn[i] = nil
	d.lrd[i] = math.Inf(1)
	d.lof[i] = math.NaN()

	if d.ix.Len() <= d.minPts+1 {
		d.lastAffected = d.ix.Len() + 1
		d.rebuildAll()
		return nil
	}

	// Points that held i in their neighborhood lose a neighbor; their
	// k-distances can only grow. The reverse query still sees their
	// pre-delete k-distances; i's own coordinates outlive its tombstone.
	d.nbChanged = d.nbChanged[:0]
	d.kdChanged = d.kdChanged[:0]
	d.refreshReverse(i)
	d.propagate()
	// Count the removed point itself, mirroring Insert's "including the
	// inserted point" contract.
	d.lastAffected++
	return nil
}

// refreshReverse recomputes the neighborhood of every live point that
// holds slot p in its neighborhood, listing them in nbChanged and those
// whose k-distance moved in kdChanged. The reverse set is taken in full
// before the first recomputation changes any k-distance.
func (d *Detector) refreshReverse(p int) {
	d.reverse(p)
	for _, q := range d.rev {
		old := d.kdist[q]
		d.recomputeNeighborhood(q)
		d.nbChanged = append(d.nbChanged, q)
		if d.kdist[q] != old {
			d.kdChanged = append(d.kdChanged, q)
		}
	}
}

// reverse sets d.rev to every live point other than c whose neighborhood
// contains c: a live point o holds c exactly when d(o,c) ≤ kdist(o)
// (neighborhoods are maintained as "all live points within the
// k-distance"), which is the index's reverse query.
func (d *Detector) reverse(c int) {
	var evals int
	d.rev, evals = d.ix.ReverseInto(d.rev[:0], d.ix.At(c), c)
	d.revEvals += int64(evals)
	d.revHits += int64(len(d.rev))
}

// nextEpoch starts a new dense set: no slot carries the returned stamp.
func (d *Detector) nextEpoch() uint32 {
	d.epoch++
	if d.epoch == 0 { // wrapped: old stamps could collide
		clear(d.stamp)
		d.epoch = 1
	}
	return d.epoch
}

// add appends o to set unless it already carries stamp e.
func (d *Detector) add(set []int, o int, e uint32) []int {
	if d.stamp[o] != e {
		d.stamp[o] = e
		set = append(set, o)
	}
	return set
}

// addReverse adds to set, under stamp e, every live point whose
// neighborhood contains c.
func (d *Detector) addReverse(set []int, c int, e uint32) []int {
	d.reverse(c)
	for _, o := range d.rev {
		set = d.add(set, o, e)
	}
	return set
}

// propagate refreshes densities and LOFs downstream of the neighborhood
// and k-distance changes listed in nbChanged and kdChanged — the shared
// tail of Insert and Delete.
func (d *Detector) propagate() {
	// Densities to refresh: any point whose neighborhood changed, plus
	// any point with a kdist-changed neighbor (its reachability distances
	// shift).
	e := d.nextEpoch()
	d.lrdDirty = d.lrdDirty[:0]
	for _, q := range d.nbChanged {
		if !d.ix.Deleted(q) {
			d.lrdDirty = d.add(d.lrdDirty, q, e)
		}
	}
	for _, c := range d.kdChanged {
		if !d.ix.Deleted(c) {
			d.lrdDirty = d.addReverse(d.lrdDirty, c, e)
		}
	}
	d.lrdChanged = d.lrdChanged[:0]
	for _, o := range d.lrdDirty {
		old := d.lrd[o]
		d.lrd[o] = d.computeLRD(o)
		if d.lrd[o] != old {
			d.lrdChanged = append(d.lrdChanged, o)
		}
	}

	// LOFs to refresh: every density-dirty point, plus points with a
	// density-changed neighbor.
	e = d.nextEpoch()
	d.lofDirty = d.lofDirty[:0]
	for _, o := range d.lrdDirty {
		d.lofDirty = d.add(d.lofDirty, o, e)
	}
	for _, c := range d.lrdChanged {
		if !d.ix.Deleted(c) {
			d.lofDirty = d.addReverse(d.lofDirty, c, e)
		}
	}
	for _, x := range d.lofDirty {
		d.lof[x] = d.computeLOF(x)
	}
	d.lastAffected = len(d.lofDirty)
}

// recomputeNeighborhood rebuilds point q's neighborhood through the
// dynamic index: a kNN-with-ties probe whose cost tracks the neighborhood,
// not the dataset. Candidates are staged in the detector's scratch buffer;
// only the trimmed neighborhood is copied into the retained per-point
// slice.
func (d *Detector) recomputeNeighborhood(q int) {
	ns := index.KNNWithTiesInto(d.cur, d.scratch[:0], d.ix.At(q), d.minPts, q)
	d.scratch = ns[:0]
	row := d.nn[q]
	if cap(row) < len(ns) {
		row = make([]index.Neighbor, len(ns))
	}
	row = row[:len(ns)]
	copy(row, ns)
	d.nn[q] = row
	kd := math.Inf(1)
	if len(ns) >= d.minPts {
		kd = ns[d.minPts-1].Dist
	} else if len(ns) > 0 {
		kd = ns[len(ns)-1].Dist
	}
	d.ix.SetKDist(q, kd)
}

func (d *Detector) computeLRD(o int) float64 {
	nn := d.nn[o]
	if len(nn) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, nb := range nn {
		sum += core.ReachDist(d.kdist[nb.Index], nb.Dist)
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return float64(len(nn)) / sum
}

func (d *Detector) computeLOF(x int) float64 {
	nn := d.nn[x]
	if len(nn) == 0 {
		return 1
	}
	var sum float64
	for _, nb := range nn {
		sum += ratio(d.lrd[nb.Index], d.lrd[x])
	}
	return sum / float64(len(nn))
}

// ratio mirrors the batch computation's infinity semantics.
func ratio(lrdO, lrdP float64) float64 {
	oInf, pInf := math.IsInf(lrdO, 1), math.IsInf(lrdP, 1)
	switch {
	case oInf && pInf:
		return 1
	case pInf:
		return 0
	case oInf:
		return math.Inf(1)
	default:
		return lrdO / lrdP
	}
}

// rebuildAll recomputes every structure from scratch (used while the
// dataset is still smaller than MinPts+2).
func (d *Detector) rebuildAll() {
	n := d.ix.Size()
	for q := 0; q < n; q++ {
		if !d.ix.Deleted(q) {
			d.recomputeNeighborhood(q)
		}
	}
	for o := 0; o < n; o++ {
		if !d.ix.Deleted(o) {
			d.lrd[o] = d.computeLRD(o)
		}
	}
	for x := 0; x < n; x++ {
		if !d.ix.Deleted(x) {
			d.lof[x] = d.computeLOF(x)
		}
	}
}

// Compact rebuilds the detector over only its live points, dropping every
// tombstoned slot: live points keep their relative order but move to
// dense indices [0, Len). No LOF, density or neighborhood value changes —
// the remapping is monotone, so tie-breaking order (and therefore every
// floating-point sum) is preserved bit for bit. It returns the slot
// remapping: remap[old] is the new index of old's point, or -1 if old was
// deleted.
func (d *Detector) Compact() []int {
	remap := d.ix.Compact()
	live := d.ix.Len()
	nn := make([][]index.Neighbor, 0, live)
	lrd := make([]float64, 0, live)
	lof := make([]float64, 0, live)
	for old, slot := range remap {
		if slot < 0 {
			continue
		}
		nn = append(nn, d.nn[old])
		lrd = append(lrd, d.lrd[old])
		lof = append(lof, d.lof[old])
	}
	for _, row := range nn {
		for j := range row {
			row[j].Index = remap[row[j].Index]
		}
	}
	d.nn, d.kdist, d.lrd, d.lof = nn, d.ix.KDists(), lrd, lof
	d.stamp, d.epoch = make([]uint32, live), 0
	return remap
}

// NewCursor returns a query cursor over the detector's index, for use
// with ScoreAtCursor. Cursors are single-goroutine objects; allocate one
// per concurrent reader, and never use one while the detector mutates.
func (d *Detector) NewCursor() index.Cursor { return d.ix.NewCursor() }

// ScoreAt returns the LOF the query point would receive from a full batch
// recomputation over the live points plus q, without inserting it — the
// out-of-sample analogue of Insert followed by LOF and Delete, at a
// fraction of the cost. Uses the detector's internal cursor, so it must
// not run concurrently with mutations or other internal-cursor calls.
func (d *Detector) ScoreAt(q geom.Point) (float64, error) {
	return d.ScoreAtCursor(d.cur, q)
}

// mrow is a merged row for out-of-sample scoring: one point's
// neighborhood and k-distance in live ∪ {q}.
type mrow struct {
	nn    []index.Neighbor
	kdist float64
}

// ScoreAtCursor is ScoreAt through a caller-owned cursor (see NewCursor).
// Many goroutines may score concurrently against a quiescent detector,
// each with its own cursor; scoring must not overlap mutations.
//
// The result is bit-identical to what lof.Fit over the live points plus q
// (in live slot order, q last) would report for q: the query's
// neighborhood is probed with ties, q is spliced into the neighborhoods
// of points it would displace — shrinking their k-distances exactly as a
// refit would — and the Definition 5–7 sums run in the same canonical
// (distance, index) order.
func (d *Detector) ScoreAtCursor(cur index.Cursor, q geom.Point) (float64, error) {
	if len(q) != d.Dim() {
		return 0, fmt.Errorf("incremental: query has %d dimensions, detector has %d", len(q), d.Dim())
	}
	if !q.Valid() {
		return 0, geom.ErrInvalidCoord
	}
	// qIdx orders q after every live slot, exactly where a refit over
	// live ∪ {q} would place it (live slots compact monotonically).
	qIdx := d.ix.Size()
	nq := index.KNNWithTiesInto(cur, nil, q, d.minPts, index.ExcludeNone)
	if len(nq) == 0 {
		return 1, nil // isolated by construction
	}
	kdistQ := nq[len(nq)-1].Dist
	if len(nq) >= d.minPts {
		kdistQ = nq[d.minPts-1].Dist
	}

	// mergedRow computes o's row in live ∪ {q}: if q lands within o's
	// current k-distance it is spliced into the neighborhood — at the
	// position (d(o,q), qIdx) — and the MinPts cut with ties reapplied.
	// The merged neighborhood is a subset of nn[o] ∪ {q}, so the stored
	// rows are a sufficient candidate set.
	rows := map[int]mrow{}
	mergedRow := func(o int) mrow {
		if r, ok := rows[o]; ok {
			return r
		}
		doq := d.ix.DistTo(o, q)
		r := mrow{nn: d.nn[o], kdist: d.kdist[o]}
		if doq <= r.kdist {
			old := d.nn[o]
			cand := make([]index.Neighbor, 0, len(old)+1)
			at := len(old)
			for j, nb := range old {
				// q loses distance ties: qIdx exceeds every live slot.
				if doq < nb.Dist {
					at = j
					break
				}
			}
			cand = append(cand, old[:at]...)
			cand = append(cand, index.Neighbor{Index: qIdx, Dist: doq})
			cand = append(cand, old[at:]...)
			if len(cand) > d.minPts {
				kd := cand[d.minPts-1].Dist
				hi := d.minPts
				for hi < len(cand) && cand[hi].Dist <= kd {
					hi++
				}
				cand = cand[:hi]
			}
			r.nn = cand
			if len(cand) >= d.minPts {
				r.kdist = cand[d.minPts-1].Dist
			} else if len(cand) > 0 {
				r.kdist = cand[len(cand)-1].Dist
			}
		}
		rows[o] = r
		return r
	}
	kdistAt := func(i int) float64 {
		if i == qIdx {
			return kdistQ
		}
		return mergedRow(i).kdist
	}
	lrdOf := func(nn []index.Neighbor) float64 {
		if len(nn) == 0 {
			return math.Inf(1)
		}
		var sum float64
		for _, nb := range nn {
			sum += core.ReachDist(kdistAt(nb.Index), nb.Dist)
		}
		if sum == 0 {
			return math.Inf(1)
		}
		return float64(len(nn)) / sum
	}
	lrdQ := lrdOf(nq)
	var sum float64
	for _, nb := range nq {
		sum += ratio(lrdOf(mergedRow(nb.Index).nn), lrdQ)
	}
	return sum / float64(len(nq)), nil
}
