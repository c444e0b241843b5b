// Package dynamic implements a mutable k-nearest-neighbor index over a
// growing, tombstoned point set — the spatial index behind the incremental
// LOF detector. The in-tree index structures (kdtree, grid, vafile, …) are
// immutable after construction, which is the right trade for batch fits but
// useless under a stream of inserts and deletes. This package builds a
// dynamic structure on the classic base-plus-delta scheme:
//
//   - a base: a k-d tree (tree.go) built over a compacted copy of the live
//     points at the last rebuild;
//   - an overlay: the points inserted since that rebuild, queried by
//     sequential scan;
//   - tombstones: a deleted-bit per slot; deletions never move points, they
//     only mark them.
//
// Tombstones are skipped inside the base traversal, not filtered out of
// its result: every base node knows whether a live point remains under
// it, so a kNN probe keeps a heap of exactly k however large the
// tombstone backlog grows. When the overlay or the backlog outgrows a
// fraction of the base, the index rebuilds: the live points are compacted
// into a fresh base and both deltas reset. Rebuild cost is O(n log n)
// amortized over the Θ(n) updates that triggered it, so per-update cost
// tracks the affected neighborhood, not the dataset.
//
// Each slot also carries a k-distance (SetKDist; +Inf until set), which
// the base aggregates per node as the largest live k-distance under it.
// ReverseInto uses those maxima to answer the reverse-kNN question of
// incremental LOF maintenance — which live o have d(o,q) ≤ kd(o)? —
// exactly, pruning each node by its own maximum instead of one global
// radius (the RdNN-tree of Korn & Muthukrishnan, SIGMOD 2000).
//
// Results are exact and bit-identical to a sequential scan over the live
// points: the base computes distances with the same kernel over copied
// coordinates, and ties are broken by the canonical (distance, index)
// order on the *global* slot indices. The index is not safe for concurrent
// mutation; reads through separate cursors are safe once mutation stops
// (the epoch layer in internal/stream enforces exactly that discipline).
package dynamic

import (
	"fmt"
	"math"

	"lof/internal/geom"
	"lof/internal/index"
)

// rebuildMinOverlay is the overlay size below which rebuilds never trigger:
// tiny datasets would otherwise rebuild on every insert.
const rebuildMinOverlay = 32

// Index is a dynamic kNN index over tombstoned slots. Slot indices are
// stable across Insert and Delete: Insert appends a slot, Delete marks
// one, and query results carry slot indices. Only Compact renumbers.
type Index struct {
	pts    *geom.Points
	metric geom.Metric
	// kern is the resolved distance kernel over pts. It reads the store
	// through the pointer on every call, so it survives appends that
	// re-back the coordinate block.
	kern geom.Kernel

	deleted []bool
	// kd is each slot's k-distance as last set by SetKDist (+Inf until
	// then and after Delete).
	kd   []float64
	live int

	// base covers the slots below overlayStart that were live at the last
	// rebuild; slotPos maps those slots to base positions (-1 for slots
	// that were already tombstoned). nil while no point was live.
	base    *tree
	slotPos []int32
	// baseDead counts base points tombstoned since the rebuild.
	baseDead int
	// overlayStart is the first slot not covered by the base.
	overlayStart int

	// rev and revEvals stage the in-flight ReverseInto result and its
	// distance count, so the tree recursion appends without a heap escape.
	rev      []int
	revEvals int
}

// New returns an empty dynamic index for dim-dimensional points under m
// (Euclidean when nil).
func New(dim int, m geom.Metric) *Index {
	if m == nil {
		m = geom.Euclidean{}
	}
	pts := geom.NewPoints(dim, 0)
	return &Index{pts: pts, metric: m, kern: geom.NewKernel(pts, m)}
}

// Len returns the number of live (inserted and not deleted) points.
func (ix *Index) Len() int { return ix.live }

// Size returns the number of slots ever allocated, tombstones included.
func (ix *Index) Size() int { return ix.pts.Len() }

// Metric returns the index's metric.
func (ix *Index) Metric() geom.Metric { return ix.metric }

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.pts.Dim() }

// At returns a view of slot i's coordinates; callers must not modify it.
func (ix *Index) At(i int) geom.Point { return ix.pts.At(i) }

// DistTo returns the distance between slot i and q under the index's
// metric, through the resolved kernel (no per-call metric dispatch).
func (ix *Index) DistTo(i int, q geom.Point) float64 { return ix.kern.Dist(i, q) }

// Deleted reports whether slot i is tombstoned (out-of-range slots report
// true: there is no live point there).
func (ix *Index) Deleted(i int) bool {
	return i < 0 || i >= len(ix.deleted) || ix.deleted[i]
}

// KDists returns a view of every slot's k-distance as last set by
// SetKDist (+Inf when never set, and after Delete). The view stays current
// until the next Insert or Compact, which may move it; callers must not
// modify it.
func (ix *Index) KDists() []float64 { return ix.kd }

// SetKDist records live slot i's k-distance, which ReverseInto tests it
// against, and repairs the base's per-node maxima. A k-distance is never
// negative (+Inf stands for "not defined yet"): the base marks tombstones
// with -Inf.
func (ix *Index) SetKDist(i int, v float64) {
	ix.kd[i] = v
	if i < ix.overlayStart && ix.slotPos[i] >= 0 && !ix.deleted[i] {
		ix.base.set(ix.slotPos[i], v)
	}
}

// Insert appends p as a new slot and returns its index. The coordinates
// are copied; the caller may reuse p's backing array afterwards.
func (ix *Index) Insert(p geom.Point) (int, error) {
	if err := ix.pts.Append(p); err != nil {
		return 0, err
	}
	ix.deleted = append(ix.deleted, false)
	ix.kd = append(ix.kd, math.Inf(1))
	ix.live++
	i := ix.pts.Len() - 1
	ix.maybeRebuild()
	return i, nil
}

// Delete tombstones slot i. The slot keeps its index and coordinates; it
// just stops appearing in query results.
func (ix *Index) Delete(i int) error {
	if i < 0 || i >= ix.pts.Len() {
		return fmt.Errorf("dynamic: slot %d out of range [0, %d)", i, ix.pts.Len())
	}
	if ix.deleted[i] {
		return fmt.Errorf("dynamic: slot %d already deleted", i)
	}
	ix.deleted[i] = true
	ix.kd[i] = math.Inf(1)
	ix.live--
	if i < ix.overlayStart && ix.slotPos[i] >= 0 {
		ix.base.set(ix.slotPos[i], math.Inf(-1))
		ix.baseDead++
	}
	ix.maybeRebuild()
	return nil
}

// maybeRebuild compacts the live points into a fresh base when the overlay
// or the tombstone backlog has outgrown it. Thresholds are fractions of the
// base size so rebuild cost amortizes over the updates that caused it.
func (ix *Index) maybeRebuild() {
	overlay := ix.pts.Len() - ix.overlayStart
	if overlay < rebuildMinOverlay && ix.baseDead < rebuildMinOverlay {
		return
	}
	baseLen := 0
	if ix.base != nil {
		baseLen = len(ix.base.ids)
	}
	if overlay*4 < baseLen && ix.baseDead*2 < baseLen {
		return
	}
	ix.Rebuild()
}

// Rebuild forces compaction: live points are copied into a fresh base and
// the overlay and tombstone backlog reset. Queries answer identically
// before and after.
func (ix *Index) Rebuild() {
	n := ix.pts.Len()
	ix.slotPos = make([]int32, n)
	ix.baseDead = 0
	ix.overlayStart = n
	ix.base = nil
	if ix.live > 0 {
		ix.base = newTree(ix.pts, ix.deleted, ix.kd, ix.metric, ix.slotPos)
	}
}

// Compact drops every tombstoned slot: live points keep their relative
// order, coordinates and k-distances but move to dense slots [0, Len), and
// the base is rebuilt over them. It returns the remapping: remap[old] is
// the new slot of old's point, or -1 if old was deleted. Cursors stay
// valid.
func (ix *Index) Compact() []int {
	remap := make([]int, ix.pts.Len())
	pts := geom.NewPoints(ix.Dim(), ix.live)
	kd := make([]float64, 0, ix.live)
	for i := range remap {
		if ix.deleted[i] {
			remap[i] = -1
			continue
		}
		remap[i] = pts.Len()
		_ = pts.Append(ix.pts.At(i)) // validated on the original insert
		kd = append(kd, ix.kd[i])
	}
	ix.pts, ix.kern, ix.kd = pts, geom.NewKernel(pts, ix.metric), kd
	ix.deleted = make([]bool, ix.live)
	ix.Rebuild()
	return remap
}

// ReverseInto appends to dst every live slot o ≠ exclude whose distance
// to q is at most o's k-distance (SetKDist), in no particular order, and
// returns the extended slice with the number of distances it evaluated.
// Each base node is pruned by its own largest k-distance; overlay slots
// are checked one by one. The distances compare bit for bit with
// KNNInto's and RangeInto's.
func (ix *Index) ReverseInto(dst []int, q geom.Point, exclude int) ([]int, int) {
	ix.rev, ix.revEvals = dst, 0
	if t := ix.base; t != nil {
		ix.reverse(t, 0, q, exclude)
	}
	for i := ix.overlayStart; i < ix.pts.Len(); i++ {
		if i == exclude || ix.deleted[i] {
			continue
		}
		ix.revEvals++
		if ix.kern.Dist(i, q) <= ix.kd[i] {
			ix.rev = append(ix.rev, i)
		}
	}
	dst = ix.rev
	ix.rev = nil
	return dst, ix.revEvals
}

// reverse visits node n unless its box lies farther from q than the
// largest live k-distance under it (tombstoned subtrees hold -Inf and are
// always skipped).
func (ix *Index) reverse(t *tree, n int32, q geom.Point, exclude int) {
	if t.lowerBound(n, q) > t.maxKd[n] {
		return
	}
	nd := t.nodes[n]
	if nd.left >= 0 {
		ix.reverse(t, nd.left, q, exclude)
		ix.reverse(t, nd.right, q, exclude)
		return
	}
	for pos := nd.start; pos < nd.end; pos++ {
		kd := t.kd[pos]
		if kd < 0 || t.ids[pos] == exclude {
			continue
		}
		ix.revEvals++
		if t.kern.Dist(int(pos), q) <= kd {
			ix.rev = append(ix.rev, t.ids[pos])
		}
	}
}

// KNN returns the k nearest live neighbors of q via a fresh cursor; hot
// paths should reuse a cursor.
func (ix *Index) KNN(q geom.Point, k int, exclude int) []index.Neighbor {
	return ix.NewCursor().KNNInto(nil, q, k, exclude)
}

// Range returns all live points within distance r of q via a fresh cursor.
func (ix *Index) Range(q geom.Point, r float64, exclude int) []index.Neighbor {
	return ix.NewCursor().RangeInto(nil, q, r, exclude)
}

// NewCursor returns a reusable query object over the index. The cursor
// observes mutations (it holds no snapshot), but must not be used
// concurrently with them.
func (ix *Index) NewCursor() index.Cursor {
	return &Cursor{ix: ix, h: index.NewHeap(0)}
}

// Cursor owns the candidate heap and sorter for one query stream; see
// index.Cursor.
type Cursor struct {
	ix     *Index
	h      *index.Heap
	sorter index.Sorter
	// out stages the in-flight RangeInto destination so the recursion can
	// append without a heap escape.
	out []index.Neighbor
	// ties makes kNN pushes also collect into cand every candidate not
	// farther than the heap's worst at the time (KNNWithTiesInto).
	ties bool
	cand []index.Neighbor
}

// Index returns the cursor's index.
func (c *Cursor) Index() index.Index { return c.ix }

// KNNInto appends the k nearest live neighbors of q to dst, sorted by
// (distance, slot index), self-excluded via exclude; all live points when
// fewer than k exist.
func (c *Cursor) KNNInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	if k <= 0 {
		return dst
	}
	c.probe(q, k, exclude)
	return c.h.AppendSorted(dst)
}

// KNNWithTiesInto is index.KNNWithTiesInto — the k-distance neighborhood
// of q, ties included, sorted by (distance, slot index) — in one traversal
// instead of a kNN probe plus a range query at its k-distance. Every
// candidate not farther than the heap's worst when it arrives is kept;
// the worst only shrinks, so the kept ones include every point within the
// final k-distance, and pruned subtrees lie beyond it.
func (c *Cursor) KNNWithTiesInto(dst []index.Neighbor, q geom.Point, k int, exclude int) []index.Neighbor {
	if k <= 0 {
		return dst
	}
	c.ties, c.cand = true, c.cand[:0]
	c.probe(q, k, exclude)
	c.ties = false
	kdist, full := c.h.Worst()
	if !full {
		return c.h.AppendSorted(dst) // fewer than k live points: no ties
	}
	start := len(dst)
	for _, nb := range c.cand {
		if nb.Dist <= kdist {
			dst = append(dst, nb)
		}
	}
	c.sorter.Sort(dst[start:])
	return dst
}

// probe fills the heap with the k nearest live neighbors of q. The
// overlay goes first: a full heap lets the base prune from its root.
func (c *Cursor) probe(q geom.Point, k int, exclude int) {
	ix := c.ix
	c.h.Reset(k)
	for i := ix.overlayStart; i < ix.pts.Len(); i++ {
		if i == exclude || ix.deleted[i] {
			continue
		}
		c.push(index.Neighbor{Index: i, Dist: ix.kern.Dist(i, q)})
	}
	if t := ix.base; t != nil {
		c.knn(t, 0, t.lowerBound(0, q), q, exclude)
	}
}

// push offers a kNN candidate to the heap and, under ties, to cand.
func (c *Cursor) push(nb index.Neighbor) {
	if c.ties {
		if w, full := c.h.Worst(); full && nb.Dist > w {
			return
		}
		c.cand = append(c.cand, nb)
	}
	c.h.Push(nb)
}

// knn visits node n, whose box lies at least lb from q, unless no live
// point remains under it or the heap already holds k closer candidates.
// Children are visited nearer box first.
func (c *Cursor) knn(t *tree, n int32, lb float64, q geom.Point, exclude int) {
	if t.maxKd[n] < 0 {
		return
	}
	if w, full := c.h.Worst(); full && lb > w {
		return
	}
	nd := t.nodes[n]
	if nd.left >= 0 {
		near, far := nd.left, nd.right
		lbNear, lbFar := t.lowerBound(near, q), t.lowerBound(far, q)
		if lbFar < lbNear {
			near, far, lbNear, lbFar = far, near, lbFar, lbNear
		}
		c.knn(t, near, lbNear, q, exclude)
		c.knn(t, far, lbFar, q, exclude)
		return
	}
	for pos := nd.start; pos < nd.end; pos++ {
		if t.kd[pos] < 0 || t.ids[pos] == exclude {
			continue
		}
		c.push(index.Neighbor{Index: t.ids[pos], Dist: t.kern.Dist(int(pos), q)})
	}
}

// RangeInto appends every live point within distance r of q (inclusive) to
// dst, sorted by (distance, slot index).
func (c *Cursor) RangeInto(dst []index.Neighbor, q geom.Point, r float64, exclude int) []index.Neighbor {
	if r < 0 {
		return dst
	}
	ix := c.ix
	start := len(dst)
	c.out = dst
	if t := ix.base; t != nil {
		c.rangeQuery(t, 0, q, r, exclude)
	}
	for i := ix.overlayStart; i < ix.pts.Len(); i++ {
		if i == exclude || ix.deleted[i] {
			continue
		}
		if d := ix.kern.Dist(i, q); d <= r {
			c.out = append(c.out, index.Neighbor{Index: i, Dist: d})
		}
	}
	dst = c.out
	c.out = nil
	c.sorter.Sort(dst[start:])
	return dst
}

func (c *Cursor) rangeQuery(t *tree, n int32, q geom.Point, r float64, exclude int) {
	if t.maxKd[n] < 0 || t.lowerBound(n, q) > r {
		return
	}
	nd := t.nodes[n]
	if nd.left >= 0 {
		c.rangeQuery(t, nd.left, q, r, exclude)
		c.rangeQuery(t, nd.right, q, r, exclude)
		return
	}
	for pos := nd.start; pos < nd.end; pos++ {
		if t.kd[pos] < 0 || t.ids[pos] == exclude {
			continue
		}
		if d := t.kern.Dist(int(pos), q); d <= r {
			c.out = append(c.out, index.Neighbor{Index: t.ids[pos], Dist: d})
		}
	}
}
