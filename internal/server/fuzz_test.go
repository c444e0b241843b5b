package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"lof"
)

// FuzzScoreHTTP feeds arbitrary bodies and mode strings through the one
// JSON decode path, POST /v1/score and POST /v1/fit, on a small fitted
// server. No input may panic or answer 5xx, and every accepted request
// answers for all of its rows: one score per query, one object per point.
func FuzzScoreHTTP(f *testing.F) {
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 6})
	if err != nil {
		f.Fatal(err)
	}
	res, err := det.Fit(testData(rand.New(rand.NewSource(5)), 60))
	if err != nil {
		f.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Config{DegradedSample: 16, CoresetSample: 16})
	srv.SetModel(m)
	h := srv.Handler()

	for _, mode := range []string{"", "full", "pruned", "coreset", "degraded", "bogus"} {
		f.Add([]byte(`{"queries":[[0,0],[10,10],[5,5]]}`), mode, false)
	}
	f.Add([]byte(`{"queries":[[0,0]],"workers":2}`), "", false)
	f.Add([]byte(`{"queries":[[1e308,-1e308],[0,0,0]]}`), "pruned", false)
	f.Add([]byte(`{"queries":[]} trailing`), "", false)
	f.Add([]byte(`{"config":{"minPtsLB":2,"minPtsUB":3,"distinct":true},"data":[[0,0],[0,0],[1,1],[2,2],[3,5]]}`), "", true)
	f.Add([]byte(`{"config":{"minPts":2,"index":"kdtree","metric":"manhattan"},"data":[[0],[1],[2],[4]]}`), "", true)
	f.Add([]byte(`{"config":{"workers":100000},"data":[[0]]}`), "", true)

	f.Fuzz(func(t *testing.T, body []byte, mode string, fit bool) {
		target := "/v1/score?mode=" + url.QueryEscape(mode)
		if fit {
			target = "/v1/fit"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d body %s", target, body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		// The front end accepted the body, so the same decoder reads it.
		var in struct {
			Queries [][]float64 `json:"queries"`
			Data    [][]float64 `json:"data"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
			t.Fatalf("accepted body %q does not decode: %v", body, err)
		}
		var out struct {
			Scores  []json.RawMessage `json:"scores"`
			Objects int               `json:"objects"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("response %s: %v", rec.Body.Bytes(), err)
		}
		if fit && out.Objects != len(in.Data) {
			t.Fatalf("fit of %d points answered %d objects", len(in.Data), out.Objects)
		}
		if !fit && len(out.Scores) != len(in.Queries) {
			t.Fatalf("%d queries answered %d scores: %s", len(in.Queries), len(out.Scores), rec.Body.Bytes())
		}
	})
}
