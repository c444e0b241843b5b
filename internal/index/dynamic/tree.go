package dynamic

import (
	"math"

	"lof/internal/geom"
)

// leafSize is the number of points at which the base tree stops
// splitting.
const leafSize = 16

// tree is the base of the dynamic index: a k-d tree over a leaf-contiguous
// copy of the points that were live at the last rebuild. Its shape and
// coordinates are fixed until the next rebuild; two kinds of per-node state
// are not:
//
//   - box: the bounding box of the stored coordinates under the node,
//     which lower-bounds the distance from a query to any of them
//     (geom.Kernel.MinDistToRect);
//   - maxKd: the largest k-distance of a live point under the node, or
//     -Inf when every point under it is tombstoned. Every k-distance
//     change and every tombstone is repaired leaf to root.
//
// kNN and range probes skip nodes whose box is too far or whose maxKd says
// nothing under them is live; the reverse probe skips a node when its box
// is farther than maxKd, since then no ball B(o, kd(o)) under it can reach
// the query. The batch kd-tree (internal/index/kdtree) carries neither, so
// fit and served scoring pay nothing for them.
type tree struct {
	dim  int
	pts  *geom.Points // coordinates in tree order
	kern geom.Kernel
	ids  []int     // tree position → slot
	kd   []float64 // tree position → the slot's k-distance, -Inf once tombstoned
	leaf []int32   // tree position → its leaf node

	nodes []node
	// box holds node n's lower corner at [2n·dim, (2n+1)·dim) and its
	// upper corner right after.
	box   []float64
	maxKd []float64
}

// node is one base-tree node; nodes are numbered in preorder, so a node's
// children come after it.
type node struct {
	start, end  int32 // tree positions [start, end)
	left, right int32 // children; left < 0 marks a leaf
	parent      int32 // -1 at the root
}

// newTree builds the base over the live slots of src, with their
// k-distances. slotPos receives each slot's tree position (-1 for
// tombstoned slots); it must have one entry per slot of src.
func newTree(src *geom.Points, deleted []bool, kd []float64, m geom.Metric, slotPos []int32) *tree {
	dim := src.Dim()
	ids := make([]int, 0, len(deleted))
	for i, dead := range deleted {
		if !dead {
			ids = append(ids, i)
		}
	}
	t := &tree{dim: dim, ids: ids}
	t.split(src, 0, len(ids), -1)

	n := len(ids)
	t.pts = geom.NewPoints(dim, n)
	t.kern = geom.NewKernel(t.pts, m)
	t.kd = make([]float64, n)
	t.leaf = make([]int32, n)
	for i := range slotPos {
		slotPos[i] = -1
	}
	for pos, slot := range ids {
		// Append copies, so the base stays valid when the index's own store
		// grows and reallocates underneath it.
		_ = t.pts.Append(src.At(slot))
		t.kd[pos] = kd[slot]
		slotPos[slot] = int32(pos)
	}
	t.maxKd = make([]float64, len(t.nodes))
	for ni := len(t.nodes) - 1; ni >= 0; ni-- {
		nd := t.nodes[ni]
		if nd.left < 0 {
			for pos := nd.start; pos < nd.end; pos++ {
				t.leaf[pos] = int32(ni)
			}
		}
		t.maxKd[ni] = t.nodeMax(int32(ni))
	}
	return t
}

// split appends the subtree over ids[start:end) in preorder and returns
// its node number. The box is computed here from the source coordinates,
// which the tree then copies bit for bit.
func (t *tree) split(src *geom.Points, start, end int, parent int32) int32 {
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{start: int32(start), end: int32(end), left: -1, right: -1, parent: parent})
	at := len(t.box)
	t.box = append(t.box, src.At(t.ids[start])...)
	t.box = append(t.box, src.At(t.ids[start])...)
	lo, hi := t.box[at:at+t.dim], t.box[at+t.dim:]
	for _, slot := range t.ids[start+1 : end] {
		for j, v := range src.At(slot) {
			lo[j] = min(lo[j], v)
			hi[j] = max(hi[j], v)
		}
	}
	if end-start <= leafSize {
		return ni
	}
	axis, spread := 0, hi[0]-lo[0]
	for j := 1; j < t.dim; j++ {
		if s := hi[j] - lo[j]; s > spread {
			axis, spread = j, s
		}
	}
	if spread == 0 {
		return ni // all points coincide: nothing to separate
	}
	mid := (start + end) / 2
	selectNth(src, t.ids[start:end], mid-start, axis)
	left := t.split(src, start, mid, ni)
	right := t.split(src, mid, end, ni)
	t.nodes[ni].left, t.nodes[ni].right = left, right
	return ni
}

// selectNth reorders ids so that ids[k] holds the point with the k-th
// smallest coordinate on axis, with no larger one before it and no smaller
// one after (Hoare's selection). Ties may land on either side: pruning
// uses the boxes, not a splitting value.
func selectNth(src *geom.Points, ids []int, k, axis int) {
	lo, hi := 0, len(ids)-1
	for lo < hi {
		pivot := src.At(ids[(lo+hi)/2])[axis]
		i, j := lo, hi
		for i <= j {
			for src.At(ids[i])[axis] < pivot {
				i++
			}
			for src.At(ids[j])[axis] > pivot {
				j--
			}
			if i <= j {
				ids[i], ids[j] = ids[j], ids[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// lowerBound returns a lower bound on the distance from q to every point
// stored under node n.
func (t *tree) lowerBound(n int32, q geom.Point) float64 {
	at := 2 * int(n) * t.dim
	return t.kern.MinDistToRect(q, t.box[at:at+t.dim], t.box[at+t.dim:at+2*t.dim])
}

// nodeMax recomputes node n's maxKd from its points (leaf) or children.
func (t *tree) nodeMax(n int32) float64 {
	nd := t.nodes[n]
	if nd.left >= 0 {
		return max(t.maxKd[nd.left], t.maxKd[nd.right])
	}
	m := math.Inf(-1)
	for _, v := range t.kd[nd.start:nd.end] {
		m = max(m, v)
	}
	return m
}

// set records a new k-distance for tree position pos (-Inf tombstones it)
// and repairs the maxima on the path to the root, stopping at the first
// node whose maximum does not move.
func (t *tree) set(pos int32, v float64) {
	if t.kd[pos] == v {
		return
	}
	t.kd[pos] = v
	for n := t.leaf[pos]; n >= 0; n = t.nodes[n].parent {
		m := t.nodeMax(n)
		if m == t.maxKd[n] {
			return
		}
		t.maxKd[n] = m
	}
}
