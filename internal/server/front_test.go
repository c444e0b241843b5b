package server

import (
	"net/http/httptest"
	"testing"

	"lof/internal/server/servertest"
	"lof/internal/trace"
)

// TestFrontEnd runs the shared front-end battery against lofserve; the
// coordinator runs the same battery in its own tests.
func TestFrontEnd(t *testing.T) {
	servertest.Run(t, func(t *testing.T) servertest.Tier {
		gate := &servertest.Gate{}
		testHookScoreStart = gate.Wait
		srv := New(Config{Trace: trace.NewCollector(trace.Config{Service: "lofserve", Sample: 1})})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			testHookScoreStart = nil
		})
		return servertest.Tier{URL: ts.URL, Gate: gate}
	})
}
