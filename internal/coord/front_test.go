package coord_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"lof/internal/coord"
	"lof/internal/server/servertest"
	"lof/internal/shard"
	"lof/internal/trace"
)

// TestFrontEnd runs the shared front-end battery against the coordinator.
// Score requests are held at shard 0's candidates round, which every
// scatter-gather passes exactly once.
func TestFrontEnd(t *testing.T) {
	servertest.Run(t, func(t *testing.T) servertest.Tier {
		gate := &servertest.Gate{}
		targets := startShards(t, 2, func(s int, h http.Handler) http.Handler {
			if s != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/shard/candidates" {
					gate.Wait()
				}
				h.ServeHTTP(w, r)
			})
		})
		c, err := coord.New(coord.Config{
			Targets:     targets,
			Client:      fastClient(),
			Partitioner: shard.PartitionHash,
			Trace:       trace.NewCollector(trace.Config{Service: "lofcoord", Sample: 1}),
		})
		if err != nil {
			t.Fatalf("coord.New: %v", err)
		}
		ts := httptest.NewServer(c.Handler())
		t.Cleanup(ts.Close)
		return servertest.Tier{URL: ts.URL, Gate: gate}
	})
}
