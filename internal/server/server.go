// Package server implements the lofserve HTTP JSON API: fit a model over
// posted data, score out-of-sample query points against the current model,
// and expose health and metrics endpoints. It is stdlib-only and built for
// serving traffic: a concurrency limiter sheds excess load with 429s, every
// request runs under a timeout, the model is swapped atomically so scoring
// never blocks behind a refit, and counters track request volume, latency
// and batch sizes. The HTTP front end (front.go) is shared with the sharded
// coordinator, which serves the same protocol over its own Backend.
//
// Endpoints:
//
//	POST /v1/fit              {"config": {...}, "data": [[...], ...]}
//	POST /v1/score            {"queries": [[...], ...]}; ?mode= full (default),
//	                          pruned (bound-certified fast path), coreset
//	                          (sensitivity-sampled model), degraded (best
//	                          available approximation under load)
//	GET  /v1/model            current model summary
//	POST /v1/shard/snapshot   install a pushed shard partition (octet-stream)
//	POST /v1/shard/candidates per-partition kNN candidates (shard role)
//	POST /v1/shard/rows       merged rows of owned points (shard role)
//	POST /v1/shard/kdists     stored k-distance envelopes (shard role)
//	POST /v1/stream/init      create (or replace) the streaming pipeline
//	POST /v1/stream           apply one ingestion batch (inserts/deletes/expiry)
//	POST /v1/stream/score     score queries against the published stream epoch
//	GET  /v1/stream/lofs      stream window IDs and maintained LOF values
//	GET  /v1/stream/stats     stream pipeline counters and epoch shape
//	POST /v1/stream/freeze    refit the stream window into the serving model
//	GET  /healthz             liveness only: 200 whenever the process serves
//	GET  /readyz              readiness: 503 until state is installed, or
//	                          while a snapshot swap is in flight
//	GET  /metrics             Prometheus text format: per-route latency
//	                          histograms, request counts by status code, gauges
//	GET  /metrics.json        the pre-Prometheus JSON counter view
//
// Every request gets an ID (honoring an inbound X-Request-ID), echoed in
// the X-Request-ID response header, included in error response bodies, and
// attached to the one structured log line emitted per request.
package server

import (
	"context"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lof"
	"lof/internal/obs"
	"lof/internal/shard"
	"lof/internal/stream"
	"lof/internal/trace"
)

// Config parameterizes a Server. The zero value serves with the defaults
// documented per field.
type Config struct {
	// MaxInFlight bounds concurrently served requests; excess requests are
	// shed immediately with 429, except that ?mode=degraded and
	// ?mode=coreset score requests may still enter a reserve of
	// max(4, MaxInFlight/8) slots. Default 64.
	MaxInFlight int
	// RequestTimeout bounds each request; requests that exceed it receive
	// 503. Default 30s.
	RequestTimeout time.Duration
	// MaxBatch bounds the number of query points per score request.
	// Default 100000.
	MaxBatch int
	// DegradedSample sizes the subsampled approximate model maintained
	// alongside each installed model for degraded-mode serving (see
	// Model.Subsample). Zero means 2048; negative disables degraded mode.
	DegradedSample int
	// CoresetSample sizes the sensitivity-sampled approximate model (see
	// Model.Coreset) maintained alongside each installed model for
	// ?mode=coreset serving; ?mode=degraded prefers it over the stride
	// subsample. Zero means 2048; negative disables coreset serving.
	CoresetSample int
	// MaxSnapshotBytes bounds pushed shard snapshots. Default 1 GiB.
	MaxSnapshotBytes int64
	// Logger receives one structured line per request (route, status,
	// duration, batch size, request ID). Nil discards logs.
	Logger *slog.Logger
	// Trace collects distributed-tracing spans for every wrapped request;
	// nil disables tracing (spans become no-ops, /v1/debug/traces answers
	// 404).
	Trace *trace.Collector
	// Now is the server clock, for wall-clock-dependent paths like stream
	// age expiry; nil means time.Now. Tests inject a fake clock here.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 100000
	}
	if c.DegradedSample == 0 {
		c.DegradedSample = 2048
	}
	if c.CoresetSample == 0 {
		c.CoresetSample = 2048
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = 1 << 30
	}
	if c.Logger == nil {
		c.Logger = DiscardLogger()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// metrics are the counters of the shard and stream roles; the shared
// request and score counters live in the front end.
type metrics struct {
	snapshots expvar.Int // shard snapshots installed
	stale     expvar.Int // shard data requests refused for version mismatch

	streamBatches expvar.Int // stream push batches applied
	streamInserts expvar.Int // points inserted through the stream
	streamExpired expvar.Int // points expired by window bounds
	streamFreezes expvar.Int // stream windows frozen into batch models
}

// Server is the single-node serving state: the current model plus the
// shard and stream roles. It is the front end's Backend for lofserve.
// Create with New, expose with Handler.
type Server struct {
	cfg      Config
	model    atomic.Pointer[lof.Model]
	degraded atomic.Pointer[lof.Model]
	// coreset is the sensitivity-sampled approximate model derived at
	// SetModel time; ?mode=coreset serves from it, and ?mode=degraded
	// prefers it over the stride subsample.
	coreset atomic.Pointer[lof.Model]
	// part is the installed shard partition when this process serves as one
	// shard of a scatter-gather tier; version mirrors the snapshot version
	// of the current state (part pushes set it, fits advance it) and is what
	// /readyz reports and shard data requests pin against. swapping gates
	// /readyz to 503 while a snapshot install is in flight; swapMu
	// serializes installs.
	part     atomic.Pointer[shard.Part]
	version  atomic.Uint64
	swapping atomic.Bool
	swapMu   sync.Mutex
	// stream is the online ingestion pipeline (nil until initialized via
	// /v1/stream/init or SetStream); handlers in stream.go serve it.
	stream atomic.Pointer[stream.Pipeline]
	front  *front
	m      metrics
}

// New returns a Server with cfg's limits (zero fields take defaults).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults()}
	f := newFront(s, s.cfg, s.writeMetrics)
	f.handle("POST /v1/shard/snapshot", s.handleShardSnapshot)
	f.handle("POST /v1/shard/candidates", s.handleShardCandidates)
	f.handle("POST /v1/shard/rows", s.handleShardRows)
	f.handle("POST /v1/shard/kdists", s.handleShardKDists)
	f.handle("POST /v1/stream/init", s.handleStreamInit)
	f.handle("POST /v1/stream", s.handleStreamPush)
	f.handle("POST /v1/stream/score", s.handleStreamScore)
	f.handle("GET /v1/stream/lofs", s.handleStreamLOFs)
	f.handle("GET /v1/stream/stats", s.handleStreamStats)
	f.handle("POST /v1/stream/freeze", s.handleStreamFreeze)
	s.front = f
	return s
}

// SetModel installs m as the serving model, replacing any previous one.
// In-flight requests finish against the model they started with. When
// approximate serving is enabled, a stride-subsampled model (degraded
// mode) and a sensitivity-sampled coreset model (coreset mode, preferred
// by degraded mode) are derived from m — synchronously; both refits are
// small — and installed alongside it; if a derivation fails, requests for
// that mode fall back per the mode's fallback chain rather than erroring.
func (s *Server) SetModel(m *lof.Model) {
	s.model.Store(m)
	// Installing a model is a state change the readiness report must
	// reflect; each install gets a fresh (monotonic, process-local) version.
	s.version.Add(1)
	s.degraded.Store(nil)
	s.coreset.Store(nil)
	if m == nil {
		return
	}
	if s.cfg.DegradedSample >= 0 {
		if d, err := m.Subsample(s.cfg.DegradedSample); err == nil {
			s.degraded.Store(d)
		}
	}
	if s.cfg.CoresetSample >= 0 {
		if c, err := m.Coreset(s.cfg.CoresetSample); err == nil {
			s.coreset.Store(c)
		}
	}
}

// Model returns the current serving model, or nil when none is installed.
func (s *Server) Model() *lof.Model { return s.model.Load() }

// Handler returns the full route table wrapped with the limiter, metrics
// and timeout middleware.
func (s *Server) Handler() http.Handler { return s.front.mux }

// now reads the configured server clock (time.Now unless a test injected
// a fake).
func (s *Server) now() time.Time { return s.cfg.Now() }

// FitConfig is the JSON shape of a fit request's configuration; fields
// mirror lof.Config with textual enums.
type FitConfig struct {
	MinPts      int       `json:"minPts,omitempty"`
	MinPtsLB    int       `json:"minPtsLB,omitempty"`
	MinPtsUB    int       `json:"minPtsUB,omitempty"`
	Aggregation string    `json:"aggregation,omitempty"`
	Metric      string    `json:"metric,omitempty"`
	Weights     []float64 `json:"weights,omitempty"`
	Index       string    `json:"index,omitempty"`
	Distinct    bool      `json:"distinct,omitempty"`
	Workers     int       `json:"workers,omitempty"`
}

// Detector translates the JSON configuration into a validated detector.
func (c FitConfig) Detector() (*lof.Detector, error) {
	if c.Workers > maxWorkers {
		return nil, fmt.Errorf("workers must be in [0, %d], got %d", maxWorkers, c.Workers)
	}
	agg, err := lof.ParseAggregation(c.Aggregation)
	if err != nil {
		return nil, err
	}
	kind, err := lof.ParseIndexKind(c.Index)
	if err != nil {
		return nil, err
	}
	return lof.New(lof.Config{
		MinPts:      c.MinPts,
		MinPtsLB:    c.MinPtsLB,
		MinPtsUB:    c.MinPtsUB,
		Aggregation: agg,
		Metric:      c.Metric,
		Weights:     c.Weights,
		Index:       kind,
		Distinct:    c.Distinct,
		Workers:     c.Workers,
	})
}

// Fit fits a model over data and installs it as the serving model.
func (s *Server) Fit(ctx context.Context, cfg FitConfig, data [][]float64) (ModelInfo, error) {
	det, err := cfg.Detector()
	if err != nil {
		return ModelInfo{}, err
	}
	res, err := det.FitContext(ctx, data)
	if err != nil {
		return ModelInfo{}, err
	}
	m, err := res.Model()
	if err != nil {
		return ModelInfo{}, err
	}
	s.SetModel(m)
	return InfoFor(m), nil
}

// Info summarizes the serving model, false when none is installed.
func (s *Server) Info() (ModelInfo, bool) {
	m := s.Model()
	if m == nil {
		return ModelInfo{}, false
	}
	return InfoFor(m), true
}

// Score scores queries against the serving model under mode. Approximate
// modes fall back rather than fail: coreset falls back to the full model
// when no coreset is installed; degraded prefers the coreset (the better
// approximation at the same size), then the stride subsample, then the
// full model. A workers override stored by the front end in ctx sizes the
// scoring pool of this request only.
func (s *Server) Score(ctx context.Context, queries [][]float64, mode string) ([]float64, string, int, error) {
	m := s.Model()
	if m == nil {
		return nil, "", 0, ErrNoModel
	}
	served := ""
	switch mode {
	case modeCoreset:
		if c := s.coreset.Load(); c != nil {
			m, served = c, modeCoreset
		}
	case modeDegraded:
		// A negative DegradedSample turns the degraded feature off entirely:
		// opting in serves the full model, whatever other approximate models
		// exist.
		if s.cfg.DegradedSample >= 0 {
			if c := s.coreset.Load(); c != nil {
				m, served = c, modeDegraded
			} else if d := s.degraded.Load(); d != nil {
				m, served = d, modeDegraded
			}
		}
	case modePruned:
		served = modePruned
	}
	if info := infoFromContext(ctx); info != nil && info.workers > 0 {
		m = m.WithWorkers(info.workers)
	}
	// With an active trace span, score against a per-request copy carrying
	// a fresh phase tracer, so core/matdb phase timings become child spans
	// of this request instead of vanishing into the shared model.
	sp := trace.SpanFrom(ctx)
	if sp != nil {
		m = m.WithTrace()
	}
	scores, certified, err := scoreChunked(ctx, m, queries, served == modePruned)
	if err != nil {
		return nil, "", 0, err
	}
	if sp != nil {
		emitPhaseSpans(sp, m.Stats())
	}
	return scores, served, certified, nil
}

// Ready reports routing readiness: ready once a model or partition is
// installed and no snapshot swap is in flight.
func (s *Server) Ready() ReadyInfo {
	p := s.part.Load()
	m := s.Model()
	info := ReadyInfo{
		Version:  s.version.Load(),
		Swapping: s.swapping.Load(),
		Role:     "single",
		Model:    m != nil,
	}
	if p != nil {
		info.Role = "shard"
		info.Shard = p.ShardID()
		info.Shards = p.NumShards()
		info.Points = p.Len()
	}
	info.Ready = !info.Swapping && (p != nil || m != nil)
	return info
}

// scoreChunkSize bounds how much scoring work happens between context
// checks, so a timed-out request stops burning CPU soon after its deadline.
const scoreChunkSize = 256

// scoreChunked scores queries in chunks of scoreChunkSize. With pruned,
// each chunk runs the bound-certified fast path — certified queries answer
// 1 from the pruning bounds alone, uncertain ones are evaluated exactly —
// and the total certified count is returned alongside the scores.
func scoreChunked(ctx context.Context, m *lof.Model, queries [][]float64, pruned bool) ([]float64, int, error) {
	out := make([]float64, 0, len(queries))
	certified := 0
	for off := 0; off < len(queries); off += scoreChunkSize {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		chunk := queries[off:min(off+scoreChunkSize, len(queries))]
		var scores []float64
		var err error
		if pruned {
			var pb *lof.PrunedBatch
			if pb, err = m.ScoreBatchPrunedContext(ctx, chunk, lof.DefaultPruneEps); err == nil {
				scores = pb.Scores
				certified += pb.Certified
			}
		} else {
			scores, err = m.ScoreBatchContext(ctx, chunk)
		}
		if err != nil {
			if ctx.Err() != nil || off == 0 {
				return nil, 0, err
			}
			// Row numbers in the error are chunk-relative; anchor them.
			return nil, 0, fmt.Errorf("batch offset %d: %w", off, err)
		}
		out = append(out, scores...)
	}
	return out, certified, nil
}

// emitPhaseSpans converts the phase tracer's aggregate timings into
// synthetic child spans of sp. Phases overlap the request span rather
// than tiling it — a phase span's duration is summed busy time across all
// calls (and workers) of that phase, which is the quantity that answers
// "where did this slow score go".
func emitPhaseSpans(sp *trace.Span, stats *lof.RunStats) {
	if stats == nil {
		return
	}
	for _, ph := range stats.Phases {
		child := sp.Child("phase/" + ph.Name)
		child.SetAttrInt("count", ph.Count)
		child.SetAttrInt("items", ph.Items)
		child.EndIn(ph.Total)
	}
}

// writeMetrics appends the shard and stream families to /metrics.
func (s *Server) writeMetrics(p *obs.PromWriter) {
	p.Family("lof_shard_snapshots_total", "counter", "Shard partition snapshots installed.")
	p.IntSample("lof_shard_snapshots_total", s.m.snapshots.Value())
	p.Family("lof_shard_stale_total", "counter", "Shard data requests refused for a stale snapshot version.")
	p.IntSample("lof_shard_stale_total", s.m.stale.Value())
	p.Family("lof_stream_batches_total", "counter", "Stream push batches applied.")
	p.IntSample("lof_stream_batches_total", s.m.streamBatches.Value())
	p.Family("lof_stream_inserts_total", "counter", "Points inserted through the stream.")
	p.IntSample("lof_stream_inserts_total", s.m.streamInserts.Value())
	p.Family("lof_stream_expired_total", "counter", "Points expired by the stream's window bounds.")
	p.IntSample("lof_stream_expired_total", s.m.streamExpired.Value())
	p.Family("lof_stream_freezes_total", "counter", "Stream windows frozen into batch models.")
	p.IntSample("lof_stream_freezes_total", s.m.streamFreezes.Value())
	pl := s.stream.Load()
	if pl == nil {
		return
	}
	st := pl.Stats()
	p.Family("lof_stream_epoch", "gauge", "Published stream epoch sequence number.")
	p.IntSample("lof_stream_epoch", int64(st.Seq))
	p.Family("lof_stream_live", "gauge", "Live points in the stream window.")
	p.IntSample("lof_stream_live", int64(st.Live))
	p.Family("lof_stream_epoch_lag_seconds", "gauge", "Seconds since the current stream epoch was published.")
	lag := 0.0
	if st.LastPublishUnixNanos > 0 {
		lag = max(0, s.now().Sub(time.Unix(0, st.LastPublishUnixNanos)).Seconds())
	}
	p.Sample("lof_stream_epoch_lag_seconds", lag)
	p.Family("lof_stream_replay_queue_depth", "gauge", "In-flight readers pinning the published epoch (writers drain behind them before replay).")
	p.IntSample("lof_stream_replay_queue_depth", int64(st.Readers))
	p.Family("lof_stream_window_occupancy", "gauge", "Fill fraction of the count-bounded stream window (0 when unbounded).")
	occ := 0.0
	if st.MaxPoints > 0 {
		occ = float64(st.Live) / float64(st.MaxPoints)
	}
	p.Sample("lof_stream_window_occupancy", occ)
}
