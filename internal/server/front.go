package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lof"
	"lof/internal/obs"
	"lof/internal/trace"
)

// The HTTP front end shared by lofserve and lofcoord. Both tiers answer the
// same protocol — fit, score, model, health, readiness, metrics — through
// this one layer: request IDs and traceparent continuation, admission with
// a degraded reserve, the request timeout, body and batch limits, JSON
// decoding and the error envelope, per-route statistics and the shared
// Prometheus families. What differs between the tiers sits behind Backend.

// Backend is the serving state behind the front end: *Server holds a whole
// model in process, the sharded coordinator scatter-gathers over shards.
type Backend interface {
	// Fit fits a model over data and installs it.
	Fit(ctx context.Context, cfg FitConfig, data [][]float64) (ModelInfo, error)
	// Score scores queries under mode ("", "full", "pruned", "coreset" or
	// "degraded"). It returns the approximate mode that actually served —
	// "" for exact scores — and the number of pruned-mode queries answered
	// from the bound certificate alone.
	Score(ctx context.Context, queries [][]float64, mode string) ([]float64, string, int, error)
	// Info summarizes the installed model, false when none is installed.
	Info() (ModelInfo, bool)
	// Ready reports routing readiness, served on /readyz.
	Ready() ReadyInfo
}

// Errors a Backend returns to select the front end's status code; any
// other error is the caller's fault and answers 400.
var (
	// ErrNoModel means nothing is fitted yet (409).
	ErrNoModel = errors.New("no fitted model")
	// ErrUnavailable means a dependency of the backend, such as a shard,
	// could not answer (502).
	ErrUnavailable = errors.New("backend dependency unavailable")
)

const (
	// maxBodyBytes bounds JSON request bodies on both tiers.
	maxBodyBytes = 64 << 20
	// maxWorkers caps the per-request workers override; a request cannot
	// conscript an unbounded number of goroutines.
	maxWorkers = 256
)

// Score-mode query parameter values: full (the default) serves exact
// scores; pruned serves the bound-certified fast path — exact scores for
// uncertain queries, a certified 1 for dense-core ones; coreset serves
// approximate scores from a sensitivity-sampled model; degraded serves the
// best available approximation and — like coreset — is admitted through
// the reserve limiter when the front end is saturated.
const (
	modeFull     = "full"
	modePruned   = "pruned"
	modeCoreset  = "coreset"
	modeDegraded = "degraded"
)

// approximateMode reports whether a requested score mode opts into
// approximate answers, which the reserve limiter may admit under load.
func approximateMode(mode string) bool {
	return mode == modeDegraded || mode == modeCoreset
}

// ModelInfo is the model summary served by /v1/model and returned by fits.
// Shards and Version are set by the sharded coordinator only.
type ModelInfo struct {
	Objects  int    `json:"objects"`
	Dims     int    `json:"dims"`
	MinPtsLB int    `json:"minPtsLB"`
	MinPtsUB int    `json:"minPtsUB"`
	Metric   string `json:"metric"`
	Distinct bool   `json:"distinct"`
	Shards   int    `json:"shards,omitempty"`
	Version  uint64 `json:"version,omitempty"`
}

// InfoFor summarizes m.
func InfoFor(m *lof.Model) ModelInfo {
	cfg := m.Config()
	metric := cfg.Metric
	if metric == "" {
		metric = "euclidean"
	}
	if cfg.Weights != nil {
		metric = "weighted-euclidean"
	}
	return ModelInfo{
		Objects:  m.Len(),
		Dims:     m.Dim(),
		MinPtsLB: cfg.MinPtsLB,
		MinPtsUB: cfg.MinPtsUB,
		Metric:   metric,
		Distinct: cfg.Distinct,
	}
}

// ReadyInfo is the /readyz body: whether this process should receive
// routed traffic, and the snapshot version its answers would be pinned to.
type ReadyInfo struct {
	Ready    bool   `json:"ready"`
	Version  uint64 `json:"version"`
	Swapping bool   `json:"swapping"`
	// Role is "shard" when a partition is installed, "single" otherwise, or
	// "coordinator".
	Role string `json:"role"`
	// Model reports whether a model is loaded.
	Model bool `json:"model"`
	// Shard layout, present in shard and coordinator roles.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	Points int `json:"points"`
}

// DiscardLogger returns a logger that drops every record, the fallback for
// a nil logger in the server and the coordinator.
func DiscardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// front is the shared HTTP layer over one Backend.
type front struct {
	b   Backend
	cfg Config
	mux *http.ServeMux
	// extra appends the backend's own families to /metrics.
	extra   func(*obs.PromWriter)
	limiter chan struct{}
	// reserve is a small pool: when the limiter is full, score requests
	// that opted into an approximate mode may still be admitted through it,
	// trading accuracy for availability instead of being shed.
	reserve chan struct{}
	routes  map[string]*routeStats
	order   []string // exposition order: the order routes were mounted

	inFlight    expvar.Int // gauge: requests currently being served
	shed        expvar.Int // requests rejected by the concurrency limiter
	degraded    expvar.Int // score responses served in degraded mode
	scoreModes  expvar.Map // score responses by the mode that actually served
	certified   expvar.Int // pruned-mode queries answered from the bound certificate
	scorePoints expvar.Int // total query points scored
	fitPoints   expvar.Int // total data points fitted
}

// testHookScoreStart, when non-nil, runs at the start of every score
// request after limiter admission. Tests use it to hold requests in flight
// deterministically.
var testHookScoreStart func()

// testHookFitStart, when non-nil, runs at the start of every fit request
// after limiter admission, before the body is decoded. Tests use it to hold
// a fit in flight across a graceful shutdown.
var testHookFitStart func()

// NewHandler returns the shared front end over b with cfg's limits (zero
// fields take defaults); extra, when non-nil, appends the backend's own
// families to /metrics.
func NewHandler(b Backend, cfg Config, extra func(*obs.PromWriter)) http.Handler {
	return newFront(b, cfg.withDefaults(), extra).mux
}

// newFront mounts the shared routes over b. cfg must have its defaults
// applied.
func newFront(b Backend, cfg Config, extra func(*obs.PromWriter)) *front {
	f := &front{
		b:       b,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		extra:   extra,
		limiter: make(chan struct{}, cfg.MaxInFlight),
		reserve: make(chan struct{}, max(4, cfg.MaxInFlight/8)),
		routes:  make(map[string]*routeStats),
	}
	f.scoreModes.Init()
	// Pre-seed every mode so the exposition is deterministic from the first
	// scrape — expvar.Map iterates sorted, and the metrics lint relies on a
	// stable family shape.
	for _, mode := range []string{modeFull, modePruned, modeCoreset, modeDegraded} {
		f.scoreModes.Add(mode, 0)
	}
	f.handle("POST /v1/fit", f.handleFit)
	f.handle("POST /v1/score", f.handleScore)
	f.handle("GET /v1/model", f.handleModel)
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /readyz", f.handleReadyz)
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	f.mux.HandleFunc("GET /metrics.json", f.handleMetricsJSON)
	// Unwrapped like /metrics: the debug read must stay available when the
	// limiter is saturated — that is exactly when someone is reading traces.
	f.mux.Handle("GET /v1/debug/traces", trace.DebugHandler(cfg.Trace))
	return f
}

// handle mounts h at pattern ("METHOD /path") behind the middleware, with
// per-route statistics under the path.
func (f *front) handle(pattern string, h http.HandlerFunc) {
	route := pattern[strings.IndexByte(pattern, ' ')+1:]
	rs := &routeStats{
		latency: obs.NewHistogram(obs.DefaultLatencyBuckets),
		byCode:  make(map[int]int64),
	}
	f.routes[route] = rs
	f.order = append(f.order, route)
	f.mux.Handle(pattern, f.wrap(route, rs, h))
}

// routeStats is the Prometheus-facing per-route view: a latency histogram
// and request counts keyed by status code.
type routeStats struct {
	latency *obs.Histogram
	mu      sync.Mutex
	byCode  map[int]int64
	// slowest and slowTrace link the route's worst observed latency to its
	// trace — the exemplar that lets an operator jump from the histogram's
	// top bucket straight to /v1/debug/traces. slowTrace is empty until a
	// traced request tops the route.
	slowest   time.Duration
	slowTrace string
}

func (rs *routeStats) record(code int, d time.Duration, traceID string) {
	rs.latency.Observe(d)
	rs.mu.Lock()
	rs.byCode[code]++
	if d > rs.slowest && traceID != "" {
		rs.slowest = d
		rs.slowTrace = traceID
	}
	rs.mu.Unlock()
}

// exemplar returns the slowest traced latency and its trace ID, ok when a
// traced request has been recorded.
func (rs *routeStats) exemplar() (time.Duration, string, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.slowest, rs.slowTrace, rs.slowTrace != ""
}

// codes returns the observed status codes in ascending order with counts.
func (rs *routeStats) codes() ([]int, map[int]int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[int]int64, len(rs.byCode))
	keys := make([]int, 0, len(rs.byCode))
	for c, n := range rs.byCode {
		out[c] = n
		keys = append(keys, c)
	}
	sort.Ints(keys)
	return keys, out
}

// requestInfo is the per-request record carried through the context: the
// request ID for error bodies and logs, the batch size reported by the
// handler, and the validated workers override a Backend may honor. Batch
// is atomic because the handler may run on the timeout middleware's
// goroutine while the logging wrapper reads it from the serving goroutine
// after a timeout.
type requestInfo struct {
	id      string
	batch   atomic.Int64
	workers int
}

type requestInfoKey struct{}

// infoFromContext returns the request's info record, nil outside wrap.
func infoFromContext(ctx context.Context) *requestInfo {
	info, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return info
}

// admitBatch answers 400 with the empty message for an empty batch and
// 413 for one over limit; otherwise it records the batch size for the
// request's log line and span.
func admitBatch(w http.ResponseWriter, r *http.Request, n, limit int, empty string) bool {
	switch {
	case n == 0:
		writeError(w, r, http.StatusBadRequest, empty)
	case n > limit:
		writeError(w, r, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d exceeds limit %d", n, limit))
	default:
		setBatch(r, n)
		return true
	}
	return false
}

// setBatch records the request's batch size for its log line and span.
func setBatch(r *http.Request, n int) {
	if info := infoFromContext(r.Context()); info != nil {
		info.batch.Store(int64(n))
	}
}

// statusWriter records the response status code. The timeout middleware
// serializes writes on the serving goroutine, so no lock is needed.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// wrap applies, outside-in: request-ID assignment, trace-span start and
// traceparent continuation, concurrency shedding, in-flight accounting,
// request timeout, per-route histograms and counters, and the one
// structured log line per request.
func (f *front) wrap(route string, rs *routeStats, h http.HandlerFunc) http.Handler {
	timed := http.TimeoutHandler(h, f.cfg.RequestTimeout, `{"error":"request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &requestInfo{id: trace.IncomingRequestID(r)}
		ctx := context.WithValue(r.Context(), requestInfoKey{}, info)
		ctx = trace.ContextWithRequestID(ctx, info.id)
		sp, ctx := f.cfg.Trace.StartRequest(ctx, "http "+route, r.Header.Get(trace.Header))
		sp.SetAttr("route", route)
		sp.SetAttr("requestId", info.id)
		r = r.WithContext(ctx)
		w.Header().Set(trace.RequestIDHeader, info.id)
		admitted := false
		select {
		case f.limiter <- struct{}{}:
			admitted = true
			defer func() { <-f.limiter }()
		default:
			if route == "/v1/score" && approximateMode(r.URL.Query().Get("mode")) {
				select {
				case f.reserve <- struct{}{}:
					admitted = true
					defer func() { <-f.reserve }()
				default:
				}
			}
		}
		if !admitted {
			f.shed.Add(1)
			// A shed is transient by construction — in-flight work drains on
			// the order of the request timeout, so hint a short retry delay.
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusTooManyRequests, "server at capacity")
			rs.record(http.StatusTooManyRequests, 0, sp.TraceIDString())
			sp.SetAttrInt("status", http.StatusTooManyRequests)
			sp.SetError("shed: server at capacity")
			sp.End()
			f.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "request shed",
				slog.String("requestId", info.id),
				slog.String("route", route),
				slog.Int("status", http.StatusTooManyRequests))
			return
		}
		f.inFlight.Add(1)
		defer f.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		timed.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing; net/http defaults the status
		}
		sp.SetAttrInt("status", int64(status))
		if batch := info.batch.Load(); batch > 0 {
			sp.SetAttrInt("batch", batch)
		}
		level := slog.LevelInfo
		if status >= 500 {
			sp.SetError(fmt.Sprintf("status %d", status))
			level = slog.LevelError
		}
		sp.EndIn(elapsed)
		rs.record(status, elapsed, sp.TraceIDString())
		f.cfg.Logger.LogAttrs(ctx, level, "request",
			slog.String("requestId", info.id),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Duration("duration", elapsed),
			slog.Int64("batch", info.batch.Load()))
	})
}

// --- request/response shapes -------------------------------------------

type fitRequest struct {
	Config FitConfig   `json:"config"`
	Data   [][]float64 `json:"data"`
}

type fitResponse struct {
	ModelInfo
	FitMS float64 `json:"fitMillis"`
}

type scoreRequest struct {
	Queries [][]float64 `json:"queries"`
	// Workers, when positive, overrides the scoring pool width for this
	// request only (1 = sequential) where the backend honors it; the
	// coordinator sizes its own merge pool. Zero keeps the fitted
	// configuration.
	Workers int `json:"workers,omitempty"`
}

type scoreResponse struct {
	Scores []jsonFloat `json:"scores"`
	// Mode is the approximate mode that actually served: "pruned",
	// "coreset" or "degraded"; omitted for exact scores (including
	// approximate requests that fell back to exact serving).
	Mode string `json:"mode,omitempty"`
	// Certified is the number of queries answered from the pruning
	// certificate alone; present only in pruned mode.
	Certified int `json:"certified,omitempty"`
}

// jsonFloat marshals non-finite LOF values (possible for duplicate-heavy
// data without distinct mode) as JSON strings instead of failing the whole
// response: +Inf → "+Inf".
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 1) {
		return []byte(`"+Inf"`), nil
	}
	if math.IsInf(v, -1) {
		return []byte(`"-Inf"`), nil
	}
	if math.IsNaN(v) {
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// --- handlers -----------------------------------------------------------

func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	// A declared length over the limit is refused before a byte is read.
	if r.ContentLength > maxBodyBytes {
		writeError(w, r, http.StatusRequestEntityTooLarge, "request body too large")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, "request body too large")
			return false
		}
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

// fail answers a Backend error with the status its class selects.
func fail(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		// The request deadline expired or the client went away; the timeout
		// middleware already answered (or nobody is listening).
	case errors.Is(err, ErrNoModel):
		writeError(w, r, http.StatusConflict, "no fitted model; POST /v1/fit first or start with -model")
	case errors.Is(err, ErrUnavailable):
		writeError(w, r, http.StatusBadGateway, err.Error())
	default:
		writeError(w, r, http.StatusBadRequest, err.Error())
	}
}

func (f *front) handleFit(w http.ResponseWriter, r *http.Request) {
	if hook := testHookFitStart; hook != nil {
		hook()
	}
	var req fitRequest
	if !decode(w, r, &req) {
		return
	}
	if !admitBatch(w, r, len(req.Data), math.MaxInt, "fit requires a non-empty data array") {
		return
	}
	start := time.Now()
	info, err := f.b.Fit(r.Context(), req.Config, req.Data)
	if err != nil {
		fail(w, r, err)
		return
	}
	f.fitPoints.Add(int64(len(req.Data)))
	writeJSON(w, http.StatusOK, fitResponse{
		ModelInfo: info,
		FitMS:     float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (f *front) handleScore(w http.ResponseWriter, r *http.Request) {
	if hook := testHookScoreStart; hook != nil {
		hook()
	}
	mode := r.URL.Query().Get("mode")
	switch mode {
	case "", modeFull, modePruned, modeCoreset, modeDegraded:
	default:
		writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("unknown mode %q; valid modes are %q, %q, %q and %q",
				mode, modeFull, modePruned, modeCoreset, modeDegraded))
		return
	}
	var req scoreRequest
	if !decode(w, r, &req) {
		return
	}
	if !admitBatch(w, r, len(req.Queries), f.cfg.MaxBatch, "score requires a non-empty queries array") {
		return
	}
	if req.Workers < 0 || req.Workers > maxWorkers {
		writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("workers must be in [0, %d], got %d", maxWorkers, req.Workers))
		return
	}
	if info := infoFromContext(r.Context()); info != nil {
		info.workers = req.Workers
	}
	scores, served, certified, err := f.b.Score(r.Context(), req.Queries, mode)
	if err != nil {
		fail(w, r, err)
		return
	}
	f.scorePoints.Add(int64(len(req.Queries)))
	resp := scoreResponse{Scores: make([]jsonFloat, len(scores)), Mode: served, Certified: certified}
	for i, v := range scores {
		resp.Scores[i] = jsonFloat(v)
	}
	switch served {
	case "":
		served = modeFull
	case modeDegraded:
		f.degraded.Add(1)
	}
	f.scoreModes.Add(served, 1)
	f.certified.Add(int64(certified))
	writeJSON(w, http.StatusOK, resp)
}

func (f *front) handleModel(w http.ResponseWriter, r *http.Request) {
	info, ok := f.b.Info()
	if !ok {
		writeError(w, r, http.StatusNotFound, "no fitted model")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleHealthz is pure liveness: 200 whenever the process is serving,
// regardless of model state. Routing decisions belong to /readyz; the model
// field is reported for operator convenience only.
func (f *front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, ok := f.b.Info()
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ok", "model": ok})
}

// handleReadyz reports routing readiness: 200 when the backend is ready,
// 503 otherwise. Liveness stays on /healthz, which never returns 503 — an
// unready replica is still a healthy process.
func (f *front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ri := f.b.Ready()
	status := http.StatusOK
	if !ri.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ri)
}

// handleMetrics serves the Prometheus text exposition: the shared families
// — per-route request counts labeled by status code, per-route latency
// histograms, admission and score-mode counters, the snapshot version and
// the tracing counters — then the backend's own. Routes are emitted in
// mount order and codes in ascending order, so the output is deterministic
// for a given state — which the scrape lint in scripts/check.sh relies on.
func (f *front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Family("lof_http_requests_total", "counter", "Completed HTTP requests by route and status code.")
	for _, route := range f.order {
		keys, counts := f.routes[route].codes()
		for _, code := range keys {
			p.IntSample("lof_http_requests_total", counts[code],
				"route", route, "code", strconv.Itoa(code))
		}
	}
	p.Family("lof_http_request_duration_seconds", "histogram", "HTTP request latency by route.")
	for _, route := range f.order {
		p.Histo("lof_http_request_duration_seconds", f.routes[route].latency.Snapshot(),
			"route", route)
	}
	p.Family("lof_http_in_flight", "gauge", "Requests currently being served.")
	p.IntSample("lof_http_in_flight", f.inFlight.Value())
	p.Family("lof_http_shed_total", "counter", "Requests rejected by the concurrency limiter.")
	p.IntSample("lof_http_shed_total", f.shed.Value())
	p.Family("lof_http_degraded_total", "counter", "Score responses served in degraded mode.")
	p.IntSample("lof_http_degraded_total", f.degraded.Value())
	p.Family("lof_http_score_mode_total", "counter", "Score responses by the mode that actually served them.")
	f.scoreModes.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			p.IntSample("lof_http_score_mode_total", v.Value(), "mode", kv.Key)
		}
	})
	p.Family("lof_http_pruned_certified_total", "counter", "Pruned-mode queries answered from the bound certificate alone.")
	p.IntSample("lof_http_pruned_certified_total", f.certified.Value())
	p.Family("lof_snapshot_version", "gauge", "Version of the installed serving state.")
	p.IntSample("lof_snapshot_version", int64(f.b.Ready().Version))
	p.Family("lof_fit_points_total", "counter", "Data points fitted across all fit requests.")
	p.IntSample("lof_fit_points_total", f.fitPoints.Value())
	p.Family("lof_score_points_total", "counter", "Query points scored across all score requests.")
	p.IntSample("lof_score_points_total", f.scorePoints.Value())
	p.Family("lof_http_slowest_request_seconds", "gauge", "Slowest traced request per route, with its trace ID — the exemplar linking the latency histogram's top bucket to /v1/debug/traces.")
	for _, route := range f.order {
		if d, tid, ok := f.routes[route].exemplar(); ok {
			p.Sample("lof_http_slowest_request_seconds", d.Seconds(),
				"route", route, "trace_id", tid)
		}
	}
	ts := f.cfg.Trace.Stats()
	p.Family("lof_trace_spans_total", "counter", "Trace spans started in this process.")
	p.IntSample("lof_trace_spans_total", int64(ts.Started))
	p.Family("lof_trace_recorded_total", "counter", "Trace spans recorded to the ring buffer.")
	p.IntSample("lof_trace_recorded_total", int64(ts.Recorded))
	p.Family("lof_trace_dropped_total", "counter", "Recorded trace spans evicted by the ring bound.")
	p.IntSample("lof_trace_dropped_total", int64(ts.Dropped))
	if f.extra != nil {
		f.extra(p)
	}
}

// handleMetricsJSON serves the counters as one JSON object — the view
// /metrics offered before it switched to the Prometheus text format.
func (f *front) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	requests := make(map[string]int64)
	latencyUS := make(map[string]int64)
	for _, route := range f.order {
		s := f.routes[route].latency.Snapshot()
		if n := s.Count(); n > 0 {
			requests[route] = n
			latencyUS[route] = s.Sum.Microseconds()
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"requests":           requests,
		"latency_us":         latencyUS,
		"batch_points_total": f.scorePoints.Value(),
		"fit_points_total":   f.fitPoints.Value(),
		"in_flight":          f.inFlight.Value(),
		"shed_total":         f.shed.Value(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with {"error": ..., "requestId": ...} so clients can
// quote the ID that the server's log line carries.
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	body := map[string]string{"error": msg}
	if info := infoFromContext(r.Context()); info != nil {
		body["requestId"] = info.id
	}
	writeJSON(w, status, body)
}
