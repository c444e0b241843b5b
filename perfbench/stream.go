package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"lof"
	"lof/internal/geom"
	"lof/internal/incremental"
	"lof/internal/server"
	"lof/internal/stream"
)

// Stream workload shape: MinPts 10, pushes of 8 inserts that each expire 8
// points once the window is full, and 8-query reads beside them.
const (
	streamMinPts   = 10
	streamBatch    = 8
	streamFill     = 64  // inserts per push while filling the window
	streamReadRate = 100 // reads per second in the traced run's open loop
)

// streamTarget is a running lofserve with a filled stream window.
type streamTarget struct {
	srv    *server.Server
	lb     *loopback
	url    string
	client *benchClient
	points *rand.Rand
	gen    *generator
	sent   [][]float64 // every inserted point, in order
	epoch  uint64      // highest epoch a reader has seen
}

func (t *streamTarget) close() { t.lb.close() }

type streamPushResponse struct {
	Epoch    uint64   `json:"epoch"`
	Inserted []uint64 `json:"inserted"`
	Expired  []uint64 `json:"expired"`
	Live     int      `json:"live"`
}

type streamScoreResponse struct {
	Scores []jfloat `json:"scores"`
	Epoch  uint64   `json:"epoch"`
}

// setupStream starts lofserve on loopback, initializes its stream through
// /v1/stream/init and fills the window through /v1/stream.
func setupStream(o *options) (*streamTarget, error) {
	srv := server.New(server.Config{})
	lb, err := serveLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	s := newStreams(o.seed)
	t := &streamTarget{srv: srv, lb: lb, url: lb.url, client: newClient(), points: s.data, gen: s.gen}
	init := map[string]any{"config": server.StreamConfig{Dim: dim, MinPts: streamMinPts, MaxPoints: o.size.window}}
	if err := postJSON(context.Background(), t.client.hc, t.url+"/v1/stream/init", init, nil); err != nil {
		t.close()
		return nil, fmt.Errorf("stream init: %w", err)
	}
	for len(t.sent) < o.size.window {
		if _, err := t.push(min(streamFill, o.size.window-len(t.sent))); err != nil {
			t.close()
			return nil, fmt.Errorf("stream fill: %w", err)
		}
	}
	return t, nil
}

// push inserts the next n generated points through /v1/stream.
func (t *streamTarget) push(n int) (*streamPushResponse, error) {
	pts := t.gen.points(t.points, n, dataNoise)
	var r streamPushResponse
	if err := postJSON(context.Background(), t.client.hc, t.url+"/v1/stream", map[string]any{"inserts": pts}, &r); err != nil {
		return nil, err
	}
	t.sent = append(t.sent, pts...)
	if len(r.Inserted) != n {
		return nil, fmt.Errorf("push of %d inserted %d", n, len(r.Inserted))
	}
	return &r, nil
}

// read scores one batch through /v1/stream/score.
func (t *streamTarget) read(b scoreBatch) ([]float64, uint64, error) {
	var r streamScoreResponse
	if err := postJSON(context.Background(), t.client.hc, t.url+"/v1/stream/score", queriesRequest{Queries: b.queries}, &r); err != nil {
		return nil, 0, err
	}
	if len(r.Scores) != len(b.queries) {
		return nil, 0, fmt.Errorf("%d scores for %d queries", len(r.Scores), len(b.queries))
	}
	out := make([]float64, len(r.Scores))
	for i, v := range r.Scores {
		out[i] = float64(v)
	}
	return out, r.Epoch, nil
}

// runStreamWindow measures lofserve's streaming tier: one connection pushes
// batches back to back while the other reads back to back, so reads run
// beside writes.
func runStreamWindow(o *options) (*report, error) {
	rep := newReport()
	var sp speed
	t, setup, err := repeatSetup(o.size.setupReps, &sp, func() (*streamTarget, error) { return setupStream(o) })
	if err != nil {
		return nil, err
	}
	defer t.close()
	pool := newStreams(o.seed).batchPool(o.size.poolBatches)
	if o.trace {
		if err := traceStream(o, rep, t, pool); err != nil {
			return nil, err
		}
		verifyWindow(rep, t, o.size.window)
		return rep, finishTrace(o, rep)
	}

	// Segments of writes with reads beside them, each scaled to reference
	// speed by the marks around it, for nine tenths of the run. Reads run
	// back to back like the writes: a reader on a fixed schedule leaves its
	// core idle between reads, and on a shared host an idle core waits to
	// be scheduled again, which the scaling cannot take out (see
	// measureScore).
	write := t.writer(rep, o.size.window)
	read := numbered(t.reader(rep, pool))
	var reads, rawReads, pushes []float64
	var pushed int
	var pushMS float64
	deadline := time.Now().Add(seconds(o.seconds * 0.9))
	sp.mark()
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		var r []float64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, r = closedLoop(segment, 1, rep.counts, read)
		}()
		done, elapsed, p := closedLoop(segment, 1, rep.counts, write)
		wg.Wait()
		sp.mark()
		pushed += done
		pushMS += sp.scale(elapsed)
		reads, rawReads = append(reads, sp.scaleAll(r)...), append(rawReads, r...)
		pushes = append(pushes, p...)
	}
	// Allocation per insert comes from a short writer-only loop: counting
	// the reads' allocation would tie it to how many reads fit beside.
	a0, sent0 := allocBytes(), len(t.sent)
	closedLoop(seconds(o.seconds*0.1), 1, rep.counts, write)
	alloc := float64(allocBytes()-a0) / float64(len(t.sent)-sent0)
	rep.setE2E(&sp, setup, float64(pushed*streamBatch)/(pushMS/1000), median(reads), quantile(reads, 0.9), alloc/1024)
	rep.detail["reads"] = tailInfo(reads, 0.99)
	rep.detail["reads_as_measured"] = tailInfo(rawReads, 0.99)
	rep.detail["pushes"] = tailInfo(pushes, 0.9)
	verifyWindow(rep, t, o.size.window)
	return rep, nil
}

// writer sends one push of streamBatch inserts and checks that the full
// window expired as many points as it took.
func (t *streamTarget) writer(rep *report, window int) func(int) error {
	return func(int) error {
		r, err := t.push(streamBatch)
		if err != nil {
			return err
		}
		if len(r.Expired) != streamBatch || r.Live != window {
			rep.mismatch("push at epoch %d expired %d, live %d; want %d and %d", r.Epoch, len(r.Expired), r.Live, streamBatch, window)
		}
		return nil
	}
}

// reader returns the open-loop read operation: every score must be a
// positive finite LOF, and epochs never go backwards.
func (t *streamTarget) reader(rep *report, pool []scoreBatch) func(i int) error {
	return func(i int) error {
		scores, epoch, err := t.read(pool[i%len(pool)])
		if err != nil {
			return err
		}
		for _, v := range scores {
			if !(v > 0) || math.IsInf(v, 0) {
				rep.mismatch("stream read %d: score %v", i, v)
			}
		}
		if epoch < t.epoch {
			rep.mismatch("stream read %d: epoch %d after %d", i, epoch, t.epoch)
		}
		t.epoch = epoch
		return nil
	}
}

// verifyWindow checks the final window's maintained LOFs against a batch
// fit over the same points at the same MinPts, bit for bit.
func verifyWindow(rep *report, t *streamTarget, window int) {
	pl := t.srv.Stream()
	data, seq := pl.Window()
	_, lofs, seq2 := pl.LOFs()
	if seq != seq2 || len(data) != window {
		rep.mismatch("final window: %d points at epochs %d/%d, want %d", len(data), seq, seq2, window)
		return
	}
	want, err := lof.Scores(data, streamMinPts)
	if err != nil {
		rep.mismatch("batch fit of the window: %v", err)
		return
	}
	compareBits(rep, "stream window LOFs", lofs, want)
}

// traceStream, for two thirds of the time, sends HTTP pushes in pairs —
// one under a span the benchmark records and one without, taking turns
// going first — each pair followed by a direct Pipeline.Apply whose stage
// timings become child spans, while the other connection reads over HTTP
// and directly. It ends by replaying the run's inserts and expiries on a
// standalone incremental detector.
func traceStream(o *options, rep *report, t *streamTarget, pool []scoreBatch) error {
	rep.initPerLayer()
	write := t.writer(rep, o.size.window)
	tr := newTracer()
	rep.spans = tr
	pl := t.srv.Stream()
	var reads, late []float64
	var scoreUS []float64
	var wg sync.WaitGroup
	wg.Add(1)
	read := t.reader(rep, pool)
	go func() {
		defer wg.Done()
		reads, late = openLoop(streamReadRate, seconds(o.seconds*2/3), 1, rep.counts, func(i int) error {
			sp := tr.begin(0, "server.stream_score")
			err := read(i)
			tr.end(sp)
			if err != nil {
				return err
			}
			b := pool[i%len(pool)]
			qs := make([]geom.Point, len(b.queries))
			for j, q := range b.queries {
				qs[j] = q
			}
			sp = tr.begin(0, "stream.score_batch")
			begin := time.Now()
			_, _, err = pl.ScoreBatch(qs)
			scoreUS = append(scoreUS, us(time.Since(begin))/float64(len(qs)))
			tr.end(sp)
			return err
		})
	}()
	var plan, apply, drain, replay, untraced []float64
	plain := func(n int) error {
		begin := time.Now()
		err := write(n)
		untraced = append(untraced, ms(time.Since(begin)))
		rep.counts.record(err)
		return err
	}
	spanned := func(n int) error {
		sp := tr.begin(0, "server.stream_push")
		err := write(n)
		tr.end(sp)
		rep.counts.record(err)
		return err
	}
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < seconds(o.seconds*2/3); n++ {
		first, second := plain, spanned
		if n%2 == 1 {
			first, second = spanned, plain
		}
		if err := first(n); err != nil {
			return err
		}
		if err := second(n); err != nil {
			return err
		}
		pts := t.gen.points(t.points, streamBatch, dataNoise)
		u := stream.Update{Inserts: make([]geom.Point, len(pts))}
		for j, p := range pts {
			u.Inserts[j] = p
		}
		sp := tr.begin(0, "stream.apply_batch")
		begin := time.Now()
		res, err := pl.Apply(u)
		tr.end(sp)
		rep.counts.record(err)
		if err != nil {
			return err
		}
		t.sent = append(t.sent, pts...)
		at := begin
		for _, st := range []struct {
			name string
			d    time.Duration
			into *[]float64
		}{
			{"stream.plan", res.Timing.Plan, &plan},
			{"stream.apply", res.Timing.Apply, &apply},
			{"stream.drain", res.Timing.Drain, &drain},
			{"stream.replay", res.Timing.Replay, &replay},
		} {
			tr.add(sp, st.name, at, st.d)
			at = at.Add(st.d)
			*st.into = append(*st.into, ms(st.d))
		}
	}
	wg.Wait()

	pushes := tr.durations("server.stream_push")
	rep.setLayer("server.stream_overhead_ms", median(pushes)-median(tr.durations("stream.apply_batch")))
	rep.setLayer("stream.plan_ms", median(plan))
	rep.setLayer("stream.apply_ms", median(apply))
	rep.setLayer("stream.drain_ms", median(drain))
	rep.setLayer("stream.replay_ms", median(replay))
	rep.setLayer("stream.score_us", median(scoreUS))
	rep.setLayer("loadgen.late_ms", quantile(late, 0.99))
	rep.setLayer("server.shed_total", float64(rep.counts.shed.Load()))
	rep.setLayer("trace.overhead_ms", medianDiff(pushes, untraced))
	rep.detail["reads"] = tailInfo(reads, 0.99)
	return replayIncremental(o, rep, tr, t.sent)
}

// replayIncremental replays the first inserts of the run on a standalone
// incremental detector with the pipeline's expiry and compaction policy,
// timing every insert and delete.
func replayIncremental(o *options, rep *report, tr *tracer, sent [][]float64) error {
	det, err := incremental.New(dim, streamMinPts, geom.Euclidean{})
	if err != nil {
		return err
	}
	var fifo []int // live slots, oldest first
	var affected []float64
	const maxReplay = 400 // inserts timed after the fill, bounding run time
	end := min(len(sent), o.size.window+maxReplay)
	for i := 0; i < end; i += streamBatch {
		timed := i >= o.size.window
		for _, p := range sent[i:min(i+streamBatch, end)] {
			sp := 0
			if timed {
				sp = tr.begin(0, "incremental.insert")
			}
			slot, err := det.Insert(p)
			tr.end(sp)
			if err != nil {
				return err
			}
			if timed {
				affected = append(affected, float64(det.LastAffected()))
			}
			fifo = append(fifo, slot)
		}
		for len(fifo) > o.size.window {
			sp := tr.begin(0, "incremental.delete")
			err := det.Delete(fifo[0])
			tr.end(sp)
			if err != nil {
				return err
			}
			fifo = fifo[1:]
		}
		if dead := det.Size() - det.Len(); dead >= 256 && dead > det.Len() {
			remap := det.Compact()
			for j, s := range fifo {
				fifo[j] = remap[s]
			}
		}
	}
	rep.setLayer("incremental.insert_ms", median(tr.durations("incremental.insert")))
	rep.setLayer("incremental.delete_ms", median(tr.durations("incremental.delete")))
	var sum float64
	for _, a := range affected {
		sum += a
	}
	if len(affected) > 0 {
		rep.setLayer("incremental.affected_per_insert", sum/float64(len(affected)))
	}
	return nil
}
