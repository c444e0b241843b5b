package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"lof"
	"lof/internal/coord"
	"lof/internal/shard"
)

// TestPrunedMode: the coordinator's pruned path certifies a meaningful
// share of clustered queries as ≈1 from the k-distance envelopes alone,
// answers every uncertain query bit-identically to the exact path, and
// never certifies a genuine outlier into the band.
func TestPrunedMode(t *testing.T) {
	queries := testQueries()
	// A narrow MinPts range keeps the stored k-distance envelope
	// [kd_{lb-1}, kd_ub] tight enough to certify; see DESIGN.md §12.
	m := fitModel(t, lof.Config{MinPtsLB: 8, MinPtsUB: 12})
	want, err := m.ScoreBatchContext(context.Background(), queries)
	if err != nil {
		t.Fatalf("single-node scores: %v", err)
	}
	for _, shards := range []int{2, 3} {
		c := newCoord(t, startShards(t, shards, nil), shard.PartitionRange)
		if _, err := c.Install(context.Background(), m); err != nil {
			t.Fatalf("shards=%d: Install: %v", shards, err)
		}
		got, mode, certified, err := c.Score(context.Background(), queries, "pruned")
		if err != nil {
			t.Fatalf("shards=%d: pruned Score: %v", shards, err)
		}
		if mode != "pruned" {
			t.Fatalf("shards=%d: served mode %q, want pruned", shards, mode)
		}
		if certified == 0 {
			t.Fatalf("shards=%d: no query certified; clustered queries should fast-path", shards)
		}
		eps := lof.DefaultPruneEps
		pruned := 0
		for i, v := range got {
			if v == 1 && math.Float64bits(want[i]) != math.Float64bits(1.0) {
				pruned++
				if want[i] < 1/(1+eps)*(1-1e-9) || want[i] > (1+eps)*(1+1e-9) {
					t.Fatalf("shards=%d query %d: certified but exact %v outside 1±%v", shards, i, want[i], eps)
				}
				continue
			}
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("shards=%d query %d: uncertain score %v != exact %v", shards, i, v, want[i])
			}
		}
		if pruned > certified {
			t.Fatalf("shards=%d: %d scores snapped to 1 but only %d reported certified", shards, pruned, certified)
		}
		// The planted outliers (queries 4 and 7) must never be certified.
		for _, oi := range []int{4, 7} {
			if got[oi] < 1.5 {
				t.Fatalf("shards=%d: outlier query %d scored %v in pruned mode", shards, oi, got[oi])
			}
		}
	}
}

// TestCoresetMode: coreset requests serve from the locally derived
// sensitivity sample — bit-identical to deriving the same coreset from the
// same model — and fall back to exact serving when derivation is disabled.
func TestCoresetMode(t *testing.T) {
	queries := testQueries()
	m := fitModel(t, lof.Config{MinPtsLB: 3, MinPtsUB: 9})
	cs, err := m.Coreset(64)
	if err != nil {
		t.Fatalf("Coreset: %v", err)
	}
	want, err := cs.ScoreBatch(queries)
	if err != nil {
		t.Fatalf("coreset scores: %v", err)
	}

	c, err := coord.New(coord.Config{
		Targets:       startShards(t, 2, nil),
		Client:        fastClient(),
		Partitioner:   shard.PartitionRange,
		CoresetSample: 64,
	})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	got, mode, _, err := c.Score(context.Background(), queries, "coreset")
	if err != nil {
		t.Fatalf("coreset Score: %v", err)
	}
	if mode != "coreset" {
		t.Fatalf("served mode %q, want coreset", mode)
	}
	assertBitIdentical(t, got, want, "coreset")

	// Disabled derivation: the request is honored exactly, unlabeled.
	c2, err := coord.New(coord.Config{
		Targets:       startShards(t, 2, nil),
		Client:        fastClient(),
		Partitioner:   shard.PartitionRange,
		CoresetSample: -1,
	})
	if err != nil {
		t.Fatalf("coord.New: %v", err)
	}
	if _, err := c2.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	exact, _ := m.ScoreBatchContext(context.Background(), queries)
	got, mode, _, err = c2.Score(context.Background(), queries, "coreset")
	if err != nil || mode != "" {
		t.Fatalf("disabled coreset: mode=%q err=%v", mode, err)
	}
	assertBitIdentical(t, got, exact, "coreset-disabled")
}

// TestPrunedModeHTTP drives ?mode=pruned through the coordinator's HTTP
// surface and checks the response shape.
func TestPrunedModeHTTP(t *testing.T) {
	m := fitModel(t, lof.Config{MinPtsLB: 8, MinPtsUB: 12})
	c := newCoord(t, startShards(t, 2, nil), shard.PartitionRange)
	if _, err := c.Install(context.Background(), m); err != nil {
		t.Fatalf("Install: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]interface{}{"queries": testQueries()})
	resp, err := ts.Client().Post(ts.URL+"/v1/score?mode=pruned", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST score: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, raw)
	}
	// Scores decode as interface{}: non-finite values arrive as strings
	// ("+Inf", "NaN") under the protocol's tolerant float rendering.
	var out struct {
		Scores    []interface{} `json:"scores"`
		Mode      string        `json:"mode"`
		Certified int           `json:"certified"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if out.Mode != "pruned" || out.Certified == 0 || len(out.Scores) != len(testQueries()) {
		t.Fatalf("pruned response = %+v", out)
	}
}
