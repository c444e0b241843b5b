package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"lof"
	"lof/internal/coord"
	"lof/internal/geom"
	"lof/internal/index"
	"lof/internal/index/kdtree"
	"lof/internal/matdb"
	"lof/internal/obs"
	"lof/internal/server"
)

// Open-loop rates of the traced run, in requests per second, which measure
// how late the load generator runs. They are about a twentieth and a fifth
// of the closed-loop capacity at the commit that defined the benchmark, so
// requests rarely overlap.
const (
	serveRate   = 20
	shardedRate = 4
)

// openedModel fits the fit-batch dataset, writes the model as a snapshot
// in workdir and opens it with OpenModelFile, as lofserve -model does. It
// returns the opened model and the open time in milliseconds.
func openedModel(o *options) (*lof.Model, float64, error) {
	s := newStreams(o.seed)
	data := s.gen.points(s.data, o.size.fitPoints, dataNoise)
	det, err := lof.New(fitConfig())
	if err != nil {
		return nil, 0, err
	}
	res, err := det.Fit(data)
	if err != nil {
		return nil, 0, err
	}
	m, err := res.Model()
	if err != nil {
		return nil, 0, err
	}
	f, err := os.CreateTemp(o.workdir, "model-*.lofm")
	if err != nil {
		return nil, 0, err
	}
	path := f.Name()
	defer os.Remove(path) // an open mapping outlives the file's name
	if _, err := m.WriteTo(f); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("writing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, 0, fmt.Errorf("writing snapshot: %w", err)
	}
	start := time.Now()
	opened, _, err := lof.OpenModelFile(path)
	if err != nil {
		return nil, 0, err
	}
	return opened, ms(time.Since(start)), nil
}

// scoreTarget is a running score endpoint with the model behind it.
type scoreTarget struct {
	model   *lof.Model
	url     string
	client  *benchClient
	coord   *coord.Coordinator // score-sharded only
	openMS  float64
	closers []func()
}

func (t *scoreTarget) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// setupServe starts lofserve's handler on loopback serving the opened
// snapshot.
func setupServe(o *options) (*scoreTarget, error) {
	m, openMS, err := openedModel(o)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	srv.SetModel(m)
	lb, err := serveLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	t := &scoreTarget{model: m, url: lb.url, client: newClient(), openMS: openMS, closers: []func(){lb.close}}
	return t, warmUp(t, newStreams(o.seed).batchPool(o.size.poolBatches))
}

// warmUp sends one pass of a few pool batches so connections, lazy
// server state and caches are in place before timing.
func warmUp(t *scoreTarget, pool []scoreBatch) error {
	for _, b := range pool[:min(8, len(pool))] {
		if _, err := t.client.score(t.url, b); err != nil {
			t.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// repeatSetup runs setup reps times, closing every result but the last,
// and returns the last with each set-up's time in seconds at reference
// speed, from marks of sp around every set-up; setup_s is their median.
func repeatSetup[T interface{ close() }](reps int, sp *speed, setup func() (T, error)) (T, []float64, error) {
	var last T
	var secs []float64
	sp.mark()
	for i := range reps {
		start := time.Now()
		next, err := setup()
		if i > 0 {
			last.close()
		}
		if err != nil {
			var zero T
			return zero, nil, err
		}
		d := time.Since(start)
		sp.mark()
		secs = append(secs, sp.scale(d)/1000)
		last = next
	}
	return last, secs, nil
}

// answer is one score response kept for verification.
type answer struct {
	batch     int
	scores    []float64
	mode      string
	certified int
}

type answers struct {
	mu  sync.Mutex
	all []answer
}

func (a *answers) add(x answer) {
	a.mu.Lock()
	a.all = append(a.all, x)
	a.mu.Unlock()
}

// sendPooled sends request i (pool batch i mod len) and keeps the answer.
func sendPooled(t *scoreTarget, pool []scoreBatch, keep *answers) func(i int) error {
	return func(i int) error {
		k := i % len(pool)
		r, err := t.client.score(t.url, pool[k])
		if err == nil {
			keep.add(answer{batch: k, scores: r.floats(), mode: r.Mode, certified: r.Certified})
		}
		return err
	}
}

// runScoreServe measures lofserve's /v1/score serving the opened snapshot.
func runScoreServe(o *options) (*report, error) {
	rep := newReport()
	var openMS []float64
	var sp speed
	t, setup, err := repeatSetup(o.size.setupReps, &sp, func() (*scoreTarget, error) {
		t, err := setupServe(o)
		if err == nil {
			openMS = append(openMS, t.openMS)
		}
		return t, err
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	pool := newStreams(o.seed).batchPool(o.size.poolBatches)
	var keep answers
	if o.trace {
		if err := traceScore(o, rep, t, pool, &keep, "server", nil); err != nil {
			return nil, err
		}
		rep.setLayer("snapshot.open_ms", median(openMS))
		verifyAnswers(rep, t.model, pool, keep.all)
		return rep, finishTrace(o, rep)
	}

	measureScore(o, rep, t, pool, &keep, &sp, setup, maxConns)
	return rep, nil
}

// segment is one measured stretch between two speed marks; a mark costs
// about 25 ms of kernel.
const segment = 500 * time.Millisecond

// measureScore is the untraced run of score-serve and score-sharded. It
// runs closed-loop segments until the run's time is up, taking turns
// between one connection, whose request latencies give p50_ms and tail_ms,
// and conns connections, which give throughput and allocation; with one
// connection every segment gives all of them. Each segment is scaled to
// reference speed by the marks around it. Every answer is verified
// afterwards.
//
// Latency comes from a closed loop, not an open one at a fixed rate: at a
// rate low enough that requests seldom overlap, the cores sit idle between
// requests, and on a shared host an idle core waits to be scheduled again.
// That wait moved the open loop's scaled p50 by a tenth and its p90 by a
// third between a fast and a slow host minute, while back-to-back
// requests keep the cores busy and scale like the kernel.
func measureScore(o *options, rep *report, t *scoreTarget, pool []scoreBatch, keep *answers, sp *speed, setup []float64, conns int) {
	send := numbered(sendPooled(t, pool, keep))
	var lat, raw []float64
	var items int
	var busyMS float64
	var alloc uint64
	deadline := time.Now().Add(seconds(o.seconds))
	sp.mark()
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		c := 1
		if n%2 == 1 {
			c = conns
		}
		a0 := allocBytes()
		done, elapsed, l := closedLoop(segment, c, rep.counts, send)
		a := allocBytes() - a0
		sp.mark()
		if c == 1 {
			lat, raw = append(lat, sp.scaleAll(l)...), append(raw, l...)
		}
		if c == conns {
			items += done * batchSize
			busyMS += sp.scale(elapsed)
			alloc += a
		}
	}
	rep.setE2E(sp, setup, float64(items)/(busyMS/1000), median(lat), quantile(lat, 0.9), float64(alloc)/1024/float64(items))
	rep.detail["latency"] = tailInfo(lat, 0.9)
	rep.detail["latency_as_measured"] = tailInfo(raw, 0.9)
	verifyAnswers(rep, t.model, pool, keep.all)
}

// verifyAnswers checks every kept answer against the model's own
// ScoreBatch: exact answers bit for bit; a pruned answer is either the
// exact bits or a certified 1 whose exact value lies inside the band, and
// no more answers are certified than the response claims.
func verifyAnswers(rep *report, m *lof.Model, pool []scoreBatch, got []answer) {
	exact := make([][]float64, len(pool))
	eps := lof.DefaultPruneEps
	for _, a := range got {
		if exact[a.batch] == nil {
			s, err := m.ScoreBatch(pool[a.batch].queries)
			if err != nil {
				rep.mismatch("reference ScoreBatch: %v", err)
				return
			}
			exact[a.batch] = s
		}
		want := exact[a.batch]
		if !pool[a.batch].pruned {
			compareBits(rep, fmt.Sprintf("exact batch %d", a.batch), a.scores, want)
			continue
		}
		if a.mode != "pruned" || len(a.scores) != len(want) {
			rep.mismatch("pruned batch %d: mode %q, %d scores", a.batch, a.mode, len(a.scores))
			continue
		}
		inexact := 0
		for i, v := range a.scores {
			if math.Float64bits(v) == math.Float64bits(want[i]) {
				continue
			}
			inexact++
			if v != 1 || want[i] < 1/(1+eps) || want[i] > 1+eps {
				rep.mismatch("pruned batch %d query %d: answered %v, exact %v outside the band", a.batch, i, v, want[i])
			}
		}
		if inexact > a.certified {
			rep.mismatch("pruned batch %d: %d inexact answers but %d certified", a.batch, inexact, a.certified)
		}
	}
	rep.detail["verified_answers"] = len(got)
}

// traceScore is the traced run shared by score-serve and score-sharded.
// For three quarters of the time it sends requests one at a time, in
// pairs: one under a span the benchmark records and one without, taking
// turns going first, so the pair's difference is the tracing cost. After
// each pair it scores the same batch directly — untraced, then on a copy
// of the model that records the scorer's own phases (Model.WithTrace) —
// and, where the batch asks for it, pruned and through the coordinator.
// The last quarter is an open loop that measures how late the load
// generator runs. layer names the front end ("server" or "coord"); rpcs,
// when set, attributes shard RPCs.
func traceScore(o *options, rep *report, t *scoreTarget, pool []scoreBatch, keep *answers, layer string, rpcs *rpcTimer) error {
	rep.initPerLayer()
	send := sendPooled(t, pool, keep)
	tr := newTracer()
	rep.spans = tr
	pts, db := t.model.Fitted()
	cur := index.NewCursor(kdtree.New(pts, geom.Euclidean{}))
	kern := geom.NewKernel(pts, geom.Euclidean{})
	var untraced, traced, overhead, directMS, rows, allocKB, probeUS, closureUS, evalUS []float64
	var certified, prunedQueries int
	var reqs, rpcCount, rpcBytes float64
	plain := func(i int) (float64, error) {
		start := time.Now()
		err := send(i)
		rep.counts.record(err)
		return ms(time.Since(start)), err
	}
	spanned := func(i int) (float64, error) {
		req := tr.begin(0, layer+".request")
		if rpcs != nil {
			rpcs.attach(tr, req)
		}
		start := time.Now()
		err := send(i)
		d := ms(time.Since(start))
		tr.end(req)
		rep.counts.record(err)
		if rpcs != nil {
			rpcs.attach(nil, 0)
			n, by := rpcs.take()
			reqs, rpcCount, rpcBytes = reqs+1, rpcCount+float64(n), rpcBytes+float64(by)
		}
		return d, err
	}
	deadline := time.Now().Add(seconds(o.seconds * 3 / 4))
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		b := pool[i%len(pool)]
		var reqMS, tracedMS float64
		var err error
		if i%2 == 0 {
			if reqMS, err = plain(i); err == nil {
				tracedMS, err = spanned(i)
			}
		} else if tracedMS, err = spanned(i); err == nil {
			reqMS, err = plain(i)
		}
		if err != nil {
			continue
		}
		untraced, traced = append(untraced, reqMS), append(traced, tracedMS)

		a0 := allocBytes()
		start := time.Now()
		want, err := t.model.ScoreBatch(b.queries)
		direct := ms(time.Since(start))
		allocKB = append(allocKB, float64(allocBytes()-a0)/1024/float64(len(b.queries)))
		if err != nil {
			return err
		}
		if !b.pruned {
			overhead = append(overhead, reqMS-direct)
			directMS = append(directMS, direct)
		}

		probe, closure, eval, err := scorerPhases(tr, t.model, b.queries, want)
		if err != nil {
			return err
		}
		probeUS, closureUS, evalUS = append(probeUS, probe), append(closureUS, closure), append(evalUS, eval)
		for _, q := range b.queries {
			rows = append(rows, float64(closureRows(pts, db, cur, kern, q)))
		}
		if b.pruned {
			sp := tr.begin(0, "approx.score_pruned")
			start := time.Now()
			pb, err := t.model.ScoreBatchPruned(b.queries, 0)
			tr.end(sp)
			if err != nil {
				return err
			}
			// A pruned request's server overhead is taken against the
			// pruned call it makes.
			overhead = append(overhead, reqMS-ms(time.Since(start)))
			certified += pb.Certified
			prunedQueries += len(b.queries)
		}
		if layer == "coord" {
			sp := tr.begin(0, "coord.score")
			rpcs.attach(tr, sp)
			_, _, _, err := t.coord.Score(context.Background(), b.queries, "")
			rpcs.attach(nil, 0)
			tr.end(sp)
			rpcs.take()
			if err != nil {
				return err
			}
		}
	}

	rate := float64(serveRate)
	if layer == "coord" {
		rate = shardedRate
	}
	_, late := openLoop(rate, seconds(o.seconds/4), maxConns, rep.counts, func(i int) error {
		sp := tr.begin(0, layer+".request")
		defer tr.end(sp)
		return send(i)
	})

	rep.setLayer("matdb.probe_us", median(probeUS))
	rep.setLayer("matdb.closure_us", median(closureUS))
	rep.setLayer("matdb.closure_rows", median(rows))
	rep.setLayer("core.eval_us", median(evalUS))
	rep.setLayer("score.alloc_kb_per_query", median(allocKB))
	if prunedQueries > 0 {
		rep.setLayer("approx.certified_frac", float64(certified)/float64(prunedQueries))
	}
	rep.setLayer("server.shed_total", float64(rep.counts.shed.Load()))
	rep.setLayer("loadgen.late_ms", quantile(late, 0.99))
	rep.setLayer("trace.overhead_ms", medianDiff(traced, untraced))
	if layer == "server" {
		rep.setLayer("server.overhead_ms", median(overhead))
	} else {
		rep.setLayer("coord.score_ms", median(tr.durations("coord.score")))
		rep.setLayer("shard.candidates_ms", median(tr.durations("shard.candidates")))
		rep.setLayer("shard.rows_ms", median(tr.durations("shard.rows")))
		if kd := tr.durations("shard.kdists"); len(kd) > 0 {
			rep.setLayer("shard.kdists_ms", median(kd))
		}
		rep.setLayer("shard.rpcs_per_request", rpcCount/reqs)
		rep.setLayer("shard.bytes_per_request", rpcBytes/reqs)
		rep.detail["coord_minus_direct_ms"] = median(overhead)
	}
	rep.detail["untraced_request_ms"] = tailInfo(untraced, 0.9)
	rep.detail["direct_exact_ms"] = tailInfo(directMS, 0.9)
	rep.detail["traced_request_ms"] = tailInfo(traced, 0.9)
	return nil
}

// scorerPhases scores queries on a copy of m that records the scorer's own
// phases (Model.WithTrace), checks the scores against want bit for bit, and
// returns the mean time per query, in microseconds, of the kNN probe, the
// merged-row closure, and the per-MinPts evaluation (the rest of each
// query's score phase). Queries run in parallel, so these are busy times.
// They become child spans of the batch's span in proportion, scaled down
// when their sum exceeds the batch's wall time.
func scorerPhases(tr *tracer, m *lof.Model, queries [][]float64, want []float64) (probe, closure, eval float64, err error) {
	tm := m.WithTrace()
	sp := tr.begin(0, "lof.score_batch")
	start := time.Now()
	got, err := tm.ScoreBatch(queries)
	wall := time.Since(start)
	tr.end(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(got) != len(want) {
		return 0, 0, 0, fmt.Errorf("traced ScoreBatch: %d scores for %d queries", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return 0, 0, 0, fmt.Errorf("traced ScoreBatch query %d = %v, untraced %v", i, got[i], want[i])
		}
	}
	st := tm.Stats()
	total, _ := st.Phase(obs.PhaseScore)
	knn, _ := st.Phase(obs.PhaseScoreKNN)
	merge, _ := st.Phase(obs.PhaseScoreMerge)
	if total.Count != int64(len(queries)) || knn.Count != total.Count || merge.Count != total.Count {
		return 0, 0, 0, fmt.Errorf("traced ScoreBatch recorded %d/%d/%d score/knn/merge phases for %d queries",
			total.Count, knn.Count, merge.Count, len(queries))
	}
	rest := total.Total - knn.Total - merge.Total
	scale := min(1, float64(wall)/float64(total.Total))
	at := start
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"matdb.probe", knn.Total}, {"matdb.closure", merge.Total}, {"core.eval", rest}} {
		d := time.Duration(float64(c.d) * scale)
		tr.add(sp, c.name, at, d)
		at = at.Add(d)
	}
	n := float64(len(queries))
	return us(knn.Total) / n, us(merge.Total) / n, us(rest) / n, nil
}

// closureRows counts the distinct fitted rows in q's two-hop merged-row
// closure, the rows the scorer builds for one query: q's MinPtsUB
// neighborhood and the neighborhoods of those neighbors' merged rows. The
// program keeps no such counter. Any exact index gives the same rows.
func closureRows(pts *geom.Points, db *matdb.DB, cur index.Cursor, kern geom.Kernel, q []float64) int {
	qIdx := pts.Len()
	seen := map[int]bool{}
	var first []int
	for _, nb := range db.QueryRowCursor(pts, cur, q).Neighborhood(minPtsUB) {
		if nb.Index != qIdx && !seen[nb.Index] {
			seen[nb.Index] = true
			first = append(first, nb.Index)
		}
	}
	for _, i := range first {
		for _, nb := range db.MergedRow(pts, i, q, qIdx, kern.Dist(i, q)).Neighborhood(minPtsUB) {
			if nb.Index != qIdx {
				seen[nb.Index] = true
			}
		}
	}
	return len(seen)
}
