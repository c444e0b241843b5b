// Package servertest is the protocol battery every serving tier must pass.
// lofserve (internal/server) and the sharded coordinator (internal/coord)
// both run it against their real HTTP handlers, so the front end they
// share is checked on each: request IDs and the error envelope, request
// validation, body and batch limits, 409 before the first fit, shedding
// with the degraded reserve, traceparent continuation with the
// slowest-request exemplar, and the shared /metrics families.
//
// The battery speaks HTTP and JSON only, so internal/server's own tests
// can import it.
package servertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"lof/internal/trace"
)

// The front end's shared defaults, which both tiers run on.
const (
	maxInFlight  = 64
	maxBatch     = 100000
	maxBodyBytes = 64 << 20
)

// Tier is one serving tier under test: fresh, unfitted, running with the
// default limits and recording every trace.
type Tier struct {
	// URL is the base URL of the tier's HTTP handler.
	URL string
	// Gate is called by every admitted score request exactly once, before
	// the request completes; the battery holds requests in flight with it.
	Gate *Gate
}

// Gate blocks a chosen number of callers until released.
type Gate struct {
	mu      sync.Mutex
	left    int
	entered chan struct{}
	release chan struct{}
}

// Hold makes the next n calls to Wait block until release is called;
// entered closes once all n are blocked.
func (g *Gate) Hold(n int) (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.left = n
	g.entered = make(chan struct{})
	g.release = make(chan struct{})
	ch := g.release
	return g.entered, func() { close(ch) }
}

// Wait blocks while a hold has calls left, and passes otherwise.
func (g *Gate) Wait() {
	g.mu.Lock()
	if g.left == 0 {
		g.mu.Unlock()
		return
	}
	g.left--
	if g.left == 0 {
		close(g.entered)
	}
	release := g.release
	g.mu.Unlock()
	<-release
}

// Run runs the battery; newTier starts a fresh tier for each check.
func Run(t *testing.T, newTier func(t *testing.T) Tier) {
	t.Run("RequestIDs", func(t *testing.T) { requestIDs(t, newTier(t)) })
	t.Run("Validation", func(t *testing.T) { validation(t, fitted(t, newTier(t))) })
	t.Run("Shedding", func(t *testing.T) { shedding(t, fitted(t, newTier(t))) })
	t.Run("Tracing", func(t *testing.T) { tracing(t, fitted(t, newTier(t))) })
	t.Run("Metrics", func(t *testing.T) { metrics(t, fitted(t, newTier(t))) })
}

// response is one answered request.
type response struct {
	status int
	header http.Header
	body   []byte
}

// post sends body (raw []byte, or anything JSON-encodable) to url with
// the given request header name/value pairs.
func post(t *testing.T, url string, body interface{}, header ...string) response {
	t.Helper()
	var r io.Reader
	switch b := body.(type) {
	case []byte:
		r = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(http.MethodPost, url, r)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	return do(t, req)
}

func get(t *testing.T, url string) response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, req)
}

func do(t *testing.T, req *http.Request) response {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", req.Method, req.URL.Path, err)
	}
	return response{status: resp.StatusCode, header: resp.Header, body: body}
}

// trainData is two separated clusters with two clear outliers.
func trainData() [][]float64 {
	var data [][]float64
	for i := 0; i < 40; i++ {
		fx, fy := float64(i%7)/7-0.5, float64(i%5)/5-0.5
		data = append(data, []float64{fx, fy}, []float64{10 + 1.5*fx, 10 + 1.5*fy})
	}
	return append(data, []float64{40, -30}, []float64{-25, 50})
}

var queries = [][]float64{{0, 0}, {10, 10}, {5, 5}}

// fitted fits the tier through POST /v1/fit.
func fitted(t *testing.T, tier Tier) Tier {
	t.Helper()
	resp := post(t, tier.URL+"/v1/fit", map[string]interface{}{
		"config": map[string]int{"minPtsLB": 3, "minPtsUB": 6},
		"data":   trainData(),
	})
	var out struct {
		Objects int `json:"objects"`
	}
	if resp.status != http.StatusOK || json.Unmarshal(resp.body, &out) != nil || out.Objects != len(trainData()) {
		t.Fatalf("fit: status %d body %s", resp.status, resp.body)
	}
	return tier
}

// expectError asserts an error answer: the status, and an error envelope
// whose requestId matches the X-Request-ID header.
func expectError(t *testing.T, label string, resp response, status int) {
	t.Helper()
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if resp.status != status {
		t.Fatalf("%s: status %d, want %d; body %s", label, resp.status, status, resp.body)
	}
	if err := json.Unmarshal(resp.body, &body); err != nil || body.Error == "" {
		t.Fatalf("%s: error body %s is not an error envelope", label, resp.body)
	}
	if id := resp.header.Get(trace.RequestIDHeader); id == "" || body.RequestID != id {
		t.Fatalf("%s: body requestId %q, header %q", label, body.RequestID, id)
	}
}

func requestIDs(t *testing.T, tier Tier) {
	score := map[string]interface{}{"queries": queries}
	// Before the first fit: 409, with a minted ID echoed in header and body.
	resp := post(t, tier.URL+"/v1/score", score)
	expectError(t, "score before fit", resp, http.StatusConflict)
	// A caller-chosen ID is honored.
	resp = post(t, tier.URL+"/v1/score", score, trace.RequestIDHeader, "battery-request-id")
	expectError(t, "score before fit with an ID", resp, http.StatusConflict)
	if got := resp.header.Get(trace.RequestIDHeader); got != "battery-request-id" {
		t.Fatalf("echoed %s = %q", trace.RequestIDHeader, got)
	}
	expectError(t, "model before fit", get(t, tier.URL+"/v1/model"), http.StatusNotFound)
	if resp := get(t, tier.URL+"/readyz"); resp.status != http.StatusServiceUnavailable {
		t.Fatalf("readyz before fit: status %d", resp.status)
	}
	if resp := get(t, tier.URL+"/healthz"); resp.status != http.StatusOK {
		t.Fatalf("healthz before fit: status %d", resp.status)
	}
}

// oversizeBody streams whitespace — a valid JSON prefix — without holding
// it in memory.
type oversizeBody struct{ left int }

func (b *oversizeBody) Read(p []byte) (int, error) {
	if b.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), b.left)
	for i := range p[:n] {
		p[i] = ' '
	}
	b.left -= n
	return n, nil
}

func validation(t *testing.T, tier Tier) {
	score := tier.URL + "/v1/score"
	big := make([][]float64, maxBatch+1)
	for i := range big {
		big[i] = []float64{0, 0}
	}
	for _, tc := range []struct {
		label  string
		url    string
		body   interface{}
		status int
	}{
		{"unknown mode", score + "?mode=bogus", map[string]interface{}{"queries": queries}, http.StatusBadRequest},
		{"unknown field", score, map[string]interface{}{"queries": queries, "bogus": 1}, http.StatusBadRequest},
		{"malformed body", score, []byte(`{"queries":[[0,0]`), http.StatusBadRequest},
		{"empty queries", score, map[string]interface{}{"queries": [][]float64{}}, http.StatusBadRequest},
		{"negative workers", score, map[string]interface{}{"queries": queries, "workers": -1}, http.StatusBadRequest},
		{"too many workers", score, map[string]interface{}{"queries": queries, "workers": 257}, http.StatusBadRequest},
		{"batch over limit", score, map[string]interface{}{"queries": big}, http.StatusRequestEntityTooLarge},
		{"fit without data", tier.URL + "/v1/fit", map[string]interface{}{"data": [][]float64{}}, http.StatusBadRequest},
		{"fit unknown field", tier.URL + "/v1/fit", map[string]interface{}{"data": trainData(), "bogus": true}, http.StatusBadRequest},
		{"fit with too many workers", tier.URL + "/v1/fit", map[string]interface{}{"config": map[string]int{"workers": 257}, "data": trainData()}, http.StatusBadRequest},
	} {
		expectError(t, tc.label, post(t, tc.url, tc.body), tc.status)
	}
	// A body declared over the limit is refused before it is read: the
	// client waits for a 100 Continue the front end never sends.
	req, err := http.NewRequest(http.MethodPost, score, &oversizeBody{left: maxBodyBytes + 1})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxBodyBytes + 1
	req.Header.Set("Expect", "100-continue")
	expectError(t, "body over limit", do(t, req), http.StatusRequestEntityTooLarge)
	// The bounds themselves are accepted.
	for _, workers := range []int{0, 1, 256} {
		resp := post(t, score, map[string]interface{}{"queries": queries, "workers": workers})
		if resp.status != http.StatusOK {
			t.Fatalf("workers=%d: status %d body %s", workers, resp.status, resp.body)
		}
	}
}

func shedding(t *testing.T, tier Tier) {
	score := map[string]interface{}{"queries": queries}
	raw, err := json.Marshal(score)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := tier.Gate.Hold(maxInFlight)
	var wg sync.WaitGroup
	held := make([]int, maxInFlight)
	for i := range held {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(tier.URL+"/v1/score", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("held request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			held[i] = resp.StatusCode
		}(i)
	}
	<-entered
	// Every slot is taken: a plain request is shed with a retry hint…
	resp := post(t, tier.URL+"/v1/score", score)
	expectError(t, "saturated score", resp, http.StatusTooManyRequests)
	if ra := resp.header.Get("Retry-After"); ra != "1" {
		t.Errorf("shed Retry-After = %q, want \"1\"", ra)
	}
	// …while a degraded opt-in is admitted through the reserve.
	resp = post(t, tier.URL+"/v1/score?mode=degraded", score)
	release()
	wg.Wait()
	if resp.status != http.StatusOK {
		t.Fatalf("saturated degraded score: status %d body %s", resp.status, resp.body)
	}
	for i, status := range held {
		if status != http.StatusOK {
			t.Fatalf("held request %d: status %d", i, status)
		}
	}
	samples := scrape(t, tier)
	if got := samples["lof_http_shed_total"]; got != "1" {
		t.Errorf("lof_http_shed_total = %q, want 1", got)
	}
	if got := samples["lof_http_in_flight"]; got != "0" {
		t.Errorf("lof_http_in_flight = %q after the drain, want 0", got)
	}
}

func tracing(t *testing.T, tier Tier) {
	root := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	rootID := root.TraceID.String()
	resp := post(t, tier.URL+"/v1/score", map[string]interface{}{"queries": queries}, trace.Header, trace.Format(root))
	if resp.status != http.StatusOK {
		t.Fatalf("traced score: status %d body %s", resp.status, resp.body)
	}
	var dbg struct {
		Traces []struct {
			TraceID string           `json:"traceId"`
			Spans   []trace.Recorded `json:"spans"`
		} `json:"traces"`
	}
	dresp := get(t, tier.URL+"/v1/debug/traces?trace="+rootID)
	if err := json.Unmarshal(dresp.body, &dbg); err != nil || len(dbg.Traces) != 1 {
		t.Fatalf("debug traces: status %d body %s", dresp.status, dresp.body)
	}
	continued := false
	for _, sp := range dbg.Traces[0].Spans {
		if sp.Name == "http /v1/score" && sp.ParentID == root.SpanID.String() {
			continued = true
		}
	}
	if !continued {
		t.Fatalf("no http /v1/score span under the inbound traceparent: %s", dresp.body)
	}
	exemplar := `lof_http_slowest_request_seconds{route="/v1/score",trace_id="` + rootID + `"}`
	if _, ok := scrape(t, tier)[exemplar]; !ok {
		t.Fatalf("/metrics has no exemplar %s", exemplar)
	}
}

// sharedFamilies are the /metrics families both tiers expose.
var sharedFamilies = []string{
	"lof_http_requests_total counter",
	"lof_http_request_duration_seconds histogram",
	"lof_http_in_flight gauge",
	"lof_http_shed_total counter",
	"lof_http_degraded_total counter",
	"lof_http_score_mode_total counter",
	"lof_http_pruned_certified_total counter",
	"lof_http_slowest_request_seconds gauge",
	"lof_snapshot_version gauge",
	"lof_fit_points_total counter",
	"lof_score_points_total counter",
	"lof_trace_spans_total counter",
	"lof_trace_recorded_total counter",
	"lof_trace_dropped_total counter",
}

func metrics(t *testing.T, tier Tier) {
	for _, mode := range []string{"", "?mode=pruned"} {
		if resp := post(t, tier.URL+"/v1/score"+mode, map[string]interface{}{"queries": queries}); resp.status != http.StatusOK {
			t.Fatalf("score%s: status %d body %s", mode, resp.status, resp.body)
		}
	}
	resp := get(t, tier.URL+"/metrics")
	for _, family := range sharedFamilies {
		if !bytes.Contains(resp.body, []byte("# TYPE "+family+"\n")) {
			t.Errorf("/metrics missing family %q", family)
		}
	}
	samples := scrape(t, tier)
	for name, want := range map[string]string{
		`lof_http_requests_total{route="/v1/fit",code="200"}`:   "1",
		`lof_http_requests_total{route="/v1/score",code="200"}`: "2",
		`lof_http_score_mode_total{mode="full"}`:                "1",
		`lof_http_score_mode_total{mode="pruned"}`:              "1",
		`lof_http_score_mode_total{mode="coreset"}`:             "0",
		`lof_http_score_mode_total{mode="degraded"}`:            "0",
		"lof_fit_points_total":                                  fmt.Sprint(len(trainData())),
		"lof_score_points_total":                                fmt.Sprint(2 * len(queries)),
		"lof_snapshot_version":                                  "1",
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %q, want %s", name, got, want)
		}
	}
}

// scrape reads /metrics into a sample → value map.
func scrape(t *testing.T, tier Tier) map[string]string {
	t.Helper()
	resp := get(t, tier.URL+"/metrics")
	if resp.status != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.status)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(resp.body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}
