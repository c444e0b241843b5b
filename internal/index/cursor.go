package index

import "lof/internal/geom"

// Cursor is a reusable query object over one index. It owns the candidate
// heap, the result scratch and any implementation-specific traversal state
// (kd-tree/X-tree stacks, grid cell lists, VA-file candidate sets), so
// issuing many queries through one cursor performs no per-query
// allocations: results are appended into caller-owned buffers.
//
// A cursor is bound to the index that created it and is NOT safe for
// concurrent use — it is a per-goroutine object. The index itself stays
// immutable and safe for concurrent queries; parallel consumers allocate
// one cursor per worker (see matdb.Materialize). Results are identical to
// the legacy Index.KNN/Range methods, which are themselves thin shims over
// a fresh cursor.
type Cursor interface {
	// Index returns the index this cursor queries.
	Index() Index
	// KNNInto appends the k nearest neighbors of q to dst and returns the
	// extended slice, with the exact semantics of Index.KNN: sorted by
	// (distance, index), self-exclusion via exclude, all points when fewer
	// than k are available.
	KNNInto(dst []Neighbor, q geom.Point, k int, exclude int) []Neighbor
	// RangeInto appends every point within distance r of q (inclusive) to
	// dst and returns the extended slice, with the exact semantics of
	// Index.Range.
	RangeInto(dst []Neighbor, q geom.Point, r float64, exclude int) []Neighbor
}

// CursorIndex is implemented by indexes that hand out reusable cursors.
// All five in-tree implementations (linear, grid, kdtree, xtree, vafile)
// and the Counting wrapper implement it; NewCursor falls back to a legacy
// adapter for any other Index.
type CursorIndex interface {
	Index
	// NewCursor returns a fresh cursor over the index.
	NewCursor() Cursor
}

// NewCursor returns a reusable cursor over ix: the index's own cursor when
// it implements CursorIndex, otherwise an adapter that answers through the
// legacy allocating methods (correct, but without the reuse benefit).
func NewCursor(ix Index) Cursor {
	if ci, ok := ix.(CursorIndex); ok {
		return ci.NewCursor()
	}
	return &legacyCursor{ix: ix}
}

// legacyCursor adapts a plain Index to the Cursor interface by copying out
// of the allocating methods.
type legacyCursor struct {
	ix Index
}

func (c *legacyCursor) Index() Index { return c.ix }

func (c *legacyCursor) KNNInto(dst []Neighbor, q geom.Point, k int, exclude int) []Neighbor {
	return append(dst, c.ix.KNN(q, k, exclude)...)
}

func (c *legacyCursor) RangeInto(dst []Neighbor, q geom.Point, r float64, exclude int) []Neighbor {
	return append(dst, c.ix.Range(q, r, exclude)...)
}

// tiesCursor is implemented by cursors that find the k-distance
// neighborhood in one traversal (the dynamic index's), with the exact
// semantics of KNNWithTiesInto.
type tiesCursor interface {
	KNNWithTiesInto(dst []Neighbor, q geom.Point, k int, exclude int) []Neighbor
}

// KNNWithTiesInto is KNNWithTies through a cursor: it appends the
// k-distance neighborhood of q (Definition 4, ties included) to dst and
// returns the extended slice. The intermediate kNN result is staged in dst
// itself and replaced by the range expansion, so the call allocates only
// when dst must grow. A cursor with its own KNNWithTiesInto method answers
// through it instead.
func KNNWithTiesInto(c Cursor, dst []Neighbor, q geom.Point, k int, exclude int) []Neighbor {
	if tc, ok := c.(tiesCursor); ok {
		return tc.KNNWithTiesInto(dst, q, k, exclude)
	}
	if k <= 0 {
		return dst
	}
	start := len(dst)
	dst = c.KNNInto(dst, q, k, exclude)
	if len(dst)-start < k {
		return dst // fewer than k candidates: no tie expansion possible
	}
	kdist := dst[len(dst)-1].Dist
	return c.RangeInto(dst[:start], q, kdist, exclude)
}
