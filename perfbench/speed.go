package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host the benchmark runs on is shared: on the 2-core Xeon it was
// defined on, the same code ran anywhere from 1× to 2× its best time
// depending on the minute, and a neighbour's load could take a core for a
// few seconds at a time. Wall times of two runs of the same code therefore
// differ by more than any useful regression bound.
//
// Every end-to-end time is therefore reported at reference speed. The run
// marks the host's speed before and after every measured interval (a fit,
// a set-up, a half-second segment of load) by timing a fixed reference
// kernel, which is benchmark code and never calls the program, and scales
// the interval by refSampleMS over the kernel's median time at the two
// marks around it. A change that makes the program slower still reads
// slower, because the kernel did not change; a slow host, or a slow few
// seconds, slows kernel and program alike and cancels out. The times as
// measured and the kernel times stay in the report.

// refSampleMS is the reference kernel's median time on the machine the
// benchmark was defined on (a shared 2-core Intel Xeon, Go 1.24) when it ran
// at its usual speed, so scaled times read close to that machine's
// milliseconds.
const refSampleMS = 7.0

// refThreads is how many goroutines run the kernel at once: the load
// generator's connection budget. They take the kernel's chunks from a
// shared counter, as the program's worker pool does, so contention on one
// core costs the kernel a share of its work instead of stalling the whole
// sample behind one goroutine.
const refThreads = maxConns

// Kernel shape: refQueries chunks, each a brute-force 10-NN scan of one
// query over refPoints 4-d points held flat (256 KiB, cache resident),
// which is compute bound, then refCopies chunks, each a 1 MiB copy within
// a fixed buffer, which is bound by memory bandwidth as the program's
// allocation and garbage collection are. On the defining machine, with a
// second process streaming copies on one core, score-serve's scaled p50
// moved by 9% with the copies in the kernel and by 17% with the scans
// alone. Dependent loads from a 16 MiB table were tried as the memory part
// and tracked the workloads worse than the scans alone.
const (
	refPoints  = 8192
	refQueries = 120
	refCopies  = 24
	refChunk   = 1 << 20 // bytes a copy chunk moves
)

// refSamples is how many kernel runs one speed mark takes.
const refSamples = 3

// refPts is the kernel's point set, fixed: the kernel never depends on
// --seed.
var refPts = func() []float64 {
	r := rand.New(rand.NewSource(20000516))
	pts := make([]float64, refPoints*dim)
	for i := range pts {
		pts[i] = r.Float64()
	}
	return pts
}()

// refBuf holds the copies' sources in its first half and their
// destinations in the second; it is written once so its pages are mapped
// before the first mark.
var refBuf = func() []byte {
	b := make([]byte, 2*refCopies*refChunk)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// sink keeps the kernel's results live so the compiler cannot drop it.
var sink [refThreads]float64

// refRun runs chunk c of the kernel: a scan for c < refQueries, otherwise
// a copy.
func refRun(c int) float64 {
	if c < refQueries {
		return refScan(c)
	}
	c -= refQueries
	copy(refBuf[(refCopies+c)*refChunk:(refCopies+c+1)*refChunk], refBuf[c*refChunk:(c+1)*refChunk])
	return 0
}

// refScan scans for the 10 nearest neighbours of point c and returns the
// squared distance of the tenth.
func refScan(c int) float64 {
	var best [10]float64
	for i := range best {
		best[i] = 1e300
	}
	qp := refPts[c*dim : c*dim+dim]
	for i := 0; i+dim <= len(refPts); i += dim {
		d := 0.0
		for j := range dim {
			x := refPts[i+j] - qp[j]
			d += x * x
		}
		if d < best[len(best)-1] {
			k := len(best) - 1
			for k > 0 && best[k-1] > d {
				best[k] = best[k-1]
				k--
			}
			best[k] = d
		}
	}
	return best[len(best)-1]
}

// refSample times one run of the kernel, its chunks shared by refThreads
// goroutines, in milliseconds of wall time.
func refSample() float64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for t := range refThreads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := 0.0
			for c := int(next.Add(1) - 1); c < refQueries+refCopies; c = int(next.Add(1) - 1) {
				s += refRun(c)
			}
			sink[t] = s
		}()
	}
	wg.Wait()
	return ms(time.Since(start))
}

// speed holds the kernel times of a run's marks, refSamples a mark.
type speed struct {
	kernel []float64 // ms
}

// mark takes refSamples kernel times now. It first collects garbage, so
// that neither the kernel nor the interval after it inherits a collection
// left running by the interval before.
func (s *speed) mark() {
	runtime.GC()
	for range refSamples {
		s.kernel = append(s.kernel, refSample())
	}
}

// factor is the speed of the interval between the last two marks:
// refSampleMS over the median of their kernel times, below 1 when the host
// ran slow.
func (s *speed) factor() float64 {
	n := len(s.kernel)
	return refSampleMS / median(s.kernel[max(0, n-2*refSamples):])
}

// scale returns d, measured between the last two marks, in milliseconds at
// reference speed.
func (s *speed) scale(d time.Duration) float64 { return ms(d) * s.factor() }

// scaleAll scales latencies in milliseconds measured between the last two
// marks.
func (s *speed) scaleAll(mss []float64) []float64 {
	f := s.factor()
	out := make([]float64, len(mss))
	for i, v := range mss {
		out[i] = v * f
	}
	return out
}

// summary describes the run's kernel times for the report.
func (s *speed) summary() map[string]any {
	return map[string]any{
		"ref_sample_ms": refSampleMS,
		"kernel_ms":     tailInfo(s.kernel, 0.9),
		"run_factor":    refSampleMS / median(s.kernel),
	}
}
