package coord

import (
	"net/http"
	"strconv"

	"lof/internal/obs"
	"lof/internal/server"
)

// Handler returns the coordinator's HTTP API: the front end lofserve uses
// (server.NewHandler) over the coordinator as its Backend, so clients
// written against lofserve point at a lofcoord unchanged and both tiers
// share one set of limits and metric families. Each call builds a fresh
// front end with its own limiter and request statistics.
func (c *Coordinator) Handler() http.Handler {
	return server.NewHandler(c, server.Config{Logger: c.cfg.Logger, Trace: c.cfg.Trace}, c.writeMetrics)
}

// Ready reports routing readiness: ready once a model is distributed.
func (c *Coordinator) Ready() server.ReadyInfo {
	info, ok := c.Info()
	return server.ReadyInfo{
		Ready:   ok,
		Version: info.Version,
		Role:    "coordinator",
		Model:   ok,
		Shards:  len(c.replicas),
		Points:  info.Objects,
	}
}

// writeMetrics appends the families only the coordinator owns: fits,
// repair pushes, and shard RPC latency and failures.
func (c *Coordinator) writeMetrics(p *obs.PromWriter) {
	p.Family("lof_coord_fits_total", "counter", "Models fitted and distributed by this coordinator.")
	p.IntSample("lof_coord_fits_total", c.fits.Value())
	p.Family("lof_coord_repair_pushes_total", "counter", "Snapshot re-pushes performed by the repair loop.")
	p.IntSample("lof_coord_repair_pushes_total", c.repairPushes.Value())
	p.Family("lof_coord_shard_failures_total", "counter", "Failed shard RPC rounds by shard.")
	for s := range c.shardFails {
		p.IntSample("lof_coord_shard_failures_total", c.shardFails[s].Value(), "shard", strconv.Itoa(s))
	}
	p.Family("lof_coord_shard_rpc_duration_seconds", "histogram", "Shard RPC round latency by shard (hedging included).")
	for s, h := range c.shardLatency {
		p.Histo("lof_coord_shard_rpc_duration_seconds", h.Snapshot(), "shard", strconv.Itoa(s))
	}
}
