package dynamic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/linear"
)

// contractMetrics are the metrics the contract runs under: the four with a
// floating-point-safe box bound, and Minkowski, which prunes nothing.
var contractMetrics = func() []geom.Metric {
	w, err := geom.NewWeightedEuclidean([]float64{0.5, 2})
	if err != nil {
		panic(err)
	}
	mk, err := geom.NewMinkowski(3)
	if err != nil {
		panic(err)
	}
	return []geom.Metric{geom.Euclidean{}, geom.Manhattan{}, geom.Chebyshev{}, w, mk}
}()

// scanReverse is the reverse-query oracle: {live o ≠ exclude : d(o,q) ≤ kd(o)}
// by a scan over every slot, sorted.
func scanReverse(ix *Index, q geom.Point, exclude int) []int {
	var out []int
	for o := 0; o < ix.Size(); o++ {
		if o == exclude || ix.Deleted(o) {
			continue
		}
		if ix.Metric().Distance(q, ix.At(o)) <= ix.KDists()[o] {
			out = append(out, o)
		}
	}
	return out
}

// liveLinear returns the linear index over the live slots in slot order,
// with the slot of each of its rows. The renumbering is monotone, so its
// (distance, index) order is the dynamic index's.
func liveLinear(ix *Index) (*linear.Index, []int) {
	pts := geom.NewPoints(ix.Dim(), ix.Len())
	var slots []int
	for o := 0; o < ix.Size(); o++ {
		if !ix.Deleted(o) {
			_ = pts.Append(ix.At(o))
			slots = append(slots, o)
		}
	}
	return linear.New(pts, ix.Metric()), slots
}

// checkQueries compares ReverseInto with the scan as sets, and KNNInto,
// RangeInto and KNNWithTiesInto with the linear index bit for bit, at q
// with exclude.
func checkQueries(t *testing.T, ix *Index, cur index.Cursor, q geom.Point, exclude, k int) {
	t.Helper()
	got, evals := ix.ReverseInto(nil, q, exclude)
	slices.Sort(got)
	if want := scanReverse(ix, q, exclude); !slices.Equal(got, want) {
		t.Fatalf("ReverseInto(%v, exclude %d) = %v, want %v", q, exclude, got, want)
	}
	if evals < len(got) || evals > ix.Len() {
		t.Fatalf("ReverseInto evaluated %d distances for %d hits over %d live points", evals, len(got), ix.Len())
	}

	lin, slots := liveLinear(ix)
	linExclude := index.ExcludeNone
	if at, ok := slices.BinarySearch(slots, exclude); ok {
		linExclude = at
	}
	toSlots := func(ns []index.Neighbor) []index.Neighbor {
		for j := range ns {
			ns[j].Index = slots[ns[j].Index]
		}
		return ns
	}
	wantK := toSlots(lin.KNN(q, k, linExclude))
	if gotK := cur.KNNInto(nil, q, k, exclude); !equalNeighbors(gotK, wantK) {
		t.Fatalf("KNNInto(%v, k=%d, exclude %d) = %v, want %v", q, k, exclude, gotK, wantK)
	}
	r := math.Inf(1)
	if len(wantK) > 0 {
		r = wantK[len(wantK)-1].Dist
	}
	wantR := toSlots(lin.Range(q, r, linExclude))
	if gotR := cur.RangeInto(nil, q, r, exclude); !equalNeighbors(gotR, wantR) {
		t.Fatalf("RangeInto(%v, r=%v, exclude %d) = %v, want %v", q, r, exclude, gotR, wantR)
	}
	wantT := toSlots(index.KNNWithTies(lin, q, k, linExclude))
	if gotT := index.KNNWithTiesInto(cur, nil, q, k, exclude); !equalNeighbors(gotT, wantT) {
		t.Fatalf("KNNWithTiesInto(%v, k=%d, exclude %d) = %v, want %v", q, k, exclude, gotT, wantT)
	}
}

// runSchedule drives ix through one random schedule of inserts (two thirds
// of them onto a coarse grid or onto an existing point, so duplicates are
// common), deletes, k-distance sets (+Inf, 0, random, and exactly the
// distance to another live point) and forced rebuilds, checking every
// query shape after each step. next yields the schedule's random numbers.
func runSchedule(t *testing.T, m geom.Metric, steps int, next func(n int) int) {
	ix := New(2, m)
	cur := ix.NewCursor()
	var live []int
	randLive := func() int { return live[next(len(live))] }
	for step := 0; step < steps; step++ {
		// at is the live point queried (self-excluded) after this step.
		at := -1
		switch op := next(10); {
		case op < 4 || len(live) < 2:
			p := geom.Point{float64(next(41)-20) / 4, float64(next(41)-20) / 4}
			switch next(3) {
			case 0:
				p = geom.Point{float64(next(3)), float64(next(3))}
			case 1:
				if len(live) > 0 {
					p = ix.At(randLive()).Clone()
				}
			}
			slot, err := ix.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, slot)
			// Most points get a finite k-distance at once, as in the
			// detector, so per-node maxima are mostly finite too.
			if next(4) > 0 {
				ix.SetKDist(slot, float64(next(24))/8)
			}
		case op < 6:
			j := next(len(live))
			if err := ix.Delete(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		case op < 9:
			o := randLive()
			var kd float64
			switch next(4) {
			case 0:
				kd = math.Inf(1)
			case 1:
				kd = 0
			case 2:
				kd = float64(next(64)) / 8
			default:
				// o's ball then reaches exactly to at, which must find o.
				at = randLive()
				kd = ix.DistTo(o, ix.At(at))
			}
			ix.SetKDist(o, kd)
		default:
			ix.Rebuild()
		}
		if len(live) == 0 {
			continue
		}
		// Query at a live point (self-excluded) and at a fresh point.
		if at < 0 || ix.Deleted(at) {
			at = randLive()
		}
		checkQueries(t, ix, cur, ix.At(at), at, 1+next(6))
		checkQueries(t, ix, cur, geom.Point{float64(next(41)-20) / 4, float64(next(9))}, index.ExcludeNone, 1+next(6))
	}
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
}

// TestReverseContract runs long random schedules under every metric; the
// schedules cross many automatic rebuilds and tombstone backlogs.
func TestReverseContract(t *testing.T) {
	for mi, m := range contractMetrics {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(101 + mi)))
			runSchedule(t, m, 700, rng.Intn)
		})
	}
}

// TestReverseOutlierPruning pins what the per-node maxima buy: among
// clusters whose points have small k-distances, one outlier with a huge
// k-distance must not make a query far from it scan the base.
func TestReverseOutlierPruning(t *testing.T) {
	ix := New(2, nil)
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 8; c++ {
		for i := 0; i < 64; i++ {
			if _, err := ix.Insert(geom.Point{float64(100*c) + rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	outlier, err := ix.Insert(geom.Point{350, 500})
	if err != nil {
		t.Fatal(err)
	}
	ix.Rebuild()
	for o := 0; o < ix.Size(); o++ {
		ix.SetKDist(o, 0.5)
	}
	ix.SetKDist(outlier, 1000)
	_, evals := ix.ReverseInto(nil, geom.Point{0.5, 0.5}, index.ExcludeNone)
	if evals > 2*64 {
		t.Fatalf("reverse query near one cluster evaluated %d distances, want at most %d", evals, 2*64)
	}
}

// FuzzReverseVsScan drives schedules chosen by the fuzzer's bytes through
// the same contract as TestReverseContract.
func FuzzReverseVsScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{9, 0, 0, 7, 7, 7, 3, 1, 1, 1, 4, 2, 8, 8, 5, 5})
	f.Add([]byte("duplicates and exact k-distance ties"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := contractMetrics[int(data[0])%len(contractMetrics)]
		pos := 1
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			b := int(data[pos])
			pos++
			return b % n
		}
		runSchedule(t, m, len(data), next)
	})
}
