package cluster

import (
	"io"
	"strconv"

	"repro/internal/obs"
)

// routerLatencyBounds match the apspd serving-layer buckets plus the
// network hop the router adds: 100µs to ~2.6s.
var routerLatencyBounds = []float64{
	100e-6, 400e-6, 1.6e-3, 6.4e-3, 25.6e-3, 102.4e-3, 409.6e-3, 1.6384, 2.62144,
}

// Metrics is the router instrument set (router_* namespace; one
// obs.Registry underneath, same exposition as apspd's /metrics).
type Metrics struct {
	reg *obs.Registry

	distQ, pathQ, batchQ       obs.Counter
	distLat, pathLat, batchLat obs.Histogram
	// Errors counts router responses with a non-2xx status (including
	// refusals the router itself synthesizes).
	Errors obs.Counter
	// Unrouted counts queries whose source no shard owns.
	Unrouted obs.Counter
	// ShardFailures counts scatter sub-requests that failed entirely
	// (their queries were answered with per-query error entries).
	ShardFailures obs.Counter
	// MixedGenRefusals counts /batch answers refused with 503 because the
	// gathered shards disagreed on generation even after a retry.
	MixedGenRefusals obs.Counter
	// GenRetries counts lagging sub-batches re-issued to chase the
	// highest gathered generation.
	GenRetries obs.Counter
	// Rollouts counts /admin/recompute fan-outs started; RolloutActive is
	// 1 while one is draining shard-by-shard; RolloutFails counts
	// rollouts that aborted before every shard republished and saved.
	Rollouts      obs.Counter
	RolloutActive obs.Gauge
	RolloutFails  obs.Counter
	// Per-endpoint client work, synced from the per-shard internal/client
	// stats on every scrape (set-via-add keeps the counters monotone).
	attempts, retries, hedges, hedgeWins, breakerFast, breakerOpens obs.Counter
	// shardGen mirrors each shard's last-seen generation.
	shardGen []obs.Gauge
	// shardUp mirrors the last /healthz probe verdict per shard.
	shardUp []obs.Gauge
}

// newMetrics registers the router instrument set for nShards shards.
func newMetrics(nShards int) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{reg: reg}
	const qh = "queries routed, by kind"
	m.distQ = reg.Counter("router_requests_total", qh, obs.L("kind", "dist"))
	m.pathQ = reg.Counter("router_requests_total", qh, obs.L("kind", "path"))
	m.batchQ = reg.Counter("router_requests_total", qh, obs.L("kind", "batch"))
	const lh = "end-to-end routed latency in seconds, by kind"
	m.distLat = reg.Histogram("router_latency_seconds", lh, routerLatencyBounds, obs.L("kind", "dist"))
	m.pathLat = reg.Histogram("router_latency_seconds", lh, routerLatencyBounds, obs.L("kind", "path"))
	m.batchLat = reg.Histogram("router_latency_seconds", lh, routerLatencyBounds, obs.L("kind", "batch"))
	m.Errors = reg.Counter("router_errors_total", "router responses with a non-2xx status")
	m.Unrouted = reg.Counter("router_unrouted_total", "queries whose source no shard owns")
	m.ShardFailures = reg.Counter("router_shard_failures_total", "scatter sub-requests that failed entirely")
	m.MixedGenRefusals = reg.Counter("router_mixed_generation_refusals_total", "batch answers refused because shards disagreed on generation")
	m.GenRetries = reg.Counter("router_generation_retries_total", "lagging sub-batches re-issued to reach one generation")
	m.Rollouts = reg.Counter("router_rollouts_total", "shard-by-shard recompute fan-outs started")
	m.RolloutActive = reg.Gauge("router_rollout_active", "1 while a rollout is draining shard-by-shard")
	m.RolloutFails = reg.Counter("router_rollout_failures_total", "rollouts aborted before every shard republished and saved")
	m.attempts = reg.Counter("router_client_attempts_total", "backend HTTP attempts (incl. hedges)")
	m.retries = reg.Counter("router_client_retries_total", "backend retries")
	m.hedges = reg.Counter("router_client_hedges_total", "hedged backend attempts launched")
	m.hedgeWins = reg.Counter("router_client_hedge_wins_total", "hedged attempts that answered first")
	m.breakerFast = reg.Counter("router_client_breaker_fastfails_total", "requests failed fast on an open breaker")
	m.breakerOpens = reg.Counter("router_client_breaker_opens_total", "circuit breaker open transitions")
	for k := 0; k < nShards; k++ {
		m.shardGen = append(m.shardGen, reg.Gauge("router_shard_generation",
			"last generation seen from each shard's backends", obs.L("shard", strconv.Itoa(k))))
		m.shardUp = append(m.shardUp, reg.Gauge("router_shard_up",
			"1 when the shard's last health probe succeeded", obs.L("shard", strconv.Itoa(k))))
	}
	return m
}

// Query returns the (counter, histogram) pair for a query kind.
func (m *Metrics) Query(kind string) (obs.Counter, obs.Histogram) {
	switch kind {
	case "path":
		return m.pathQ, m.pathLat
	case "batch":
		return m.batchQ, m.batchLat
	default:
		return m.distQ, m.distLat
	}
}

// Write renders the instrument set in Prometheus text format.
func (m *Metrics) Write(w io.Writer) error { return m.reg.Write(w) }
