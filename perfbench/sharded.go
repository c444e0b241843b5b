package main

import (
	"context"
	"io"
	"net/http"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"lof/internal/client"
	"lof/internal/coord"
	"lof/internal/server"
	"lof/internal/shard"
)

// numShards is the sharded tier's size: three shard servers, one replica
// each, hash-partitioned.
const numShards = 3

// setupSharded starts three lofserve shard handlers and a lofcoord handler
// on loopback, and installs the opened snapshot through the coordinator.
// Every coordinator→shard RPC goes through rpcs, which times it only while
// a tracer is attached.
func setupSharded(o *options, rpcs *rpcTimer) (*scoreTarget, float64, error) {
	m, openMS, err := openedModel(o)
	if err != nil {
		return nil, 0, err
	}
	t := &scoreTarget{model: m, client: newClient(), openMS: openMS}
	targets := make([][]string, numShards)
	for s := range targets {
		lb, err := serveLoopback(server.New(server.Config{}).Handler())
		if err != nil {
			t.close()
			return nil, 0, err
		}
		t.closers = append(t.closers, lb.close)
		targets[s] = []string{lb.url}
	}
	c, err := coord.New(coord.Config{
		Targets:     targets,
		Partitioner: shard.PartitionHash,
		Client:      client.Config{HTTPClient: &http.Client{Transport: rpcs}},
	})
	if err != nil {
		t.close()
		return nil, 0, err
	}
	start := time.Now()
	if _, err := c.Install(context.Background(), m); err != nil {
		t.close()
		return nil, 0, err
	}
	installMS := ms(time.Since(start))
	lb, err := serveLoopback(c.Handler())
	if err != nil {
		t.close()
		return nil, 0, err
	}
	t.closers = append(t.closers, lb.close)
	t.url, t.coord = lb.url, c
	return t, installMS, warmUp(t, newStreams(o.seed).batchPool(o.size.poolBatches))
}

// runScoreSharded measures lofcoord's /v1/score over three in-process
// shards the way runScoreServe measures lofserve. Its answers must equal
// the single-node model's bit for bit.
func runScoreSharded(o *options) (*report, error) {
	rep := newReport()
	rpcs := &rpcTimer{base: newTransport()}
	var installMS []float64
	var sp speed
	t, setup, err := repeatSetup(o.size.setupReps, &sp, func() (*scoreTarget, error) {
		t, ims, err := setupSharded(o, rpcs)
		installMS = append(installMS, ims)
		return t, err
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	pool := newStreams(o.seed).batchPool(o.size.poolBatches)
	var keep answers
	if o.trace {
		if err := traceScore(o, rep, t, pool, &keep, "coord", rpcs); err != nil {
			return nil, err
		}
		rep.setLayer("coord.install_ms", median(installMS))
		verifyAnswers(rep, t.model, pool, keep.all)
		return rep, finishTrace(o, rep)
	}

	// One connection: a sharded request already fans out to three shards
	// and fills both cores, and with two connections the closed loop's
	// throughput moved by a third between runs.
	measureScore(o, rep, t, pool, &keep, &sp, setup, 1)
	return rep, nil
}

// rpcTimer is the coordinator's shard transport. With a tracer attached it
// records a span per RPC, named after the shard endpoint and parented to
// the attached span, and counts RPCs and bytes on the wire (request body
// plus response body). The span ends when the coordinator closes the
// response body, so it covers reading the answer.
type rpcTimer struct {
	base http.RoundTripper

	mu     sync.Mutex
	tr     *tracer
	parent int

	rpcs, bytes atomic.Int64
}

// attach routes subsequent RPC spans to parent under tr; a nil tr stops
// tracing.
func (r *rpcTimer) attach(tr *tracer, parent int) {
	r.mu.Lock()
	r.tr, r.parent = tr, parent
	r.mu.Unlock()
}

// take returns the RPC and byte counts since the last take.
func (r *rpcTimer) take() (rpcs, bytes int64) {
	return r.rpcs.Swap(0), r.bytes.Swap(0)
}

func (r *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	tr, parent := r.tr, r.parent
	r.mu.Unlock()
	if tr == nil {
		return r.base.RoundTrip(req)
	}
	sp := tr.begin(parent, "shard."+path.Base(req.URL.Path))
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	sent := max(req.ContentLength, 0)
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(read int64) {
		tr.end(sp)
		r.rpcs.Add(1)
		r.bytes.Add(sent + read)
	}}
	return resp, nil
}

// countingBody counts the bytes read from a response body and reports
// them once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(read int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
