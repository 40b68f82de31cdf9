// Command apsprouter is the cluster front-end for apspd: a stateless
// scatter-gather router that serves the full apspd query surface (/dist,
// /path, /batch, /healthz, /metrics, /admin/recompute) against N backends
// that each own a shard of the source dimension (apspd -shard k/N).
//
// Usage:
//
//	apsprouter -addr :9090 -map cluster.json
//	apsprouter -addr :9090 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	apsprouter -addr 127.0.0.1:0 -addr-file port.txt -backends ...
//
// The shard map comes from -map (a JSON file written by internal/cluster,
// fingerprint-pinned) or is derived from -backends: a comma-separated list
// of shards, each shard a |-separated replica list, assigned contiguous
// balanced source ranges in order. Derivation probes the backends'
// /healthz for the node count and graph fingerprint, so a router pointed
// at mismatched backends refuses to start.
//
// Single-source queries are forwarded to the owning backend through
// internal/client — per-attempt deadlines, retries with jittered backoff,
// a per-shard circuit breaker, and hedging across the shard's replicas.
// /batch bodies are split by shard and scattered concurrently; a failed
// shard degrades into per-query error entries (status 502) rather than
// failing the batch. The router tracks each backend's generation from the
// X-Apsp-Generation response header and never assembles a /batch answer
// from mixed generations: lagging shards are retried once, then the
// request is refused with 503 + Retry-After. POST /admin/recompute rolls
// the cluster shard-by-shard — one backend computes at a time while the
// rest keep serving, and each saves its new generation while the next
// computes; the rollout ends when every backend has saved.
//
// Operational parity with apspd: drains gracefully on SIGINT/SIGTERM,
// writes -addr-file only after /healthz answers through the real listener,
// and -restarts N supervises the HTTP server, re-listening on the same
// port if it dies.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/oracle"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "apsprouter: %v\n", err)
		os.Exit(1)
	}
}

// run is the router body, factored for tests exactly like apspd's: ready
// (when non-nil) receives the bound address once the listener answers, and
// the function returns after a signal-triggered drain (or a startup
// failure).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("apsprouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":9090", "listen address (host:port; port 0 picks a free one)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once serving (for scripts)")

		mapPath  = fs.String("map", "", "shard map JSON file (internal/cluster format)")
		backends = fs.String("backends", "", "derive the map from backends: comma-separated shards, each a |-separated replica list")

		seed      = fs.Int64("seed", 1, "jitter PRF seed for the per-shard clients")
		probeWait = fs.Duration("probe-wait", 10*time.Second, "how long to wait for backends when deriving the map from -backends")

		drainWait = fs.Duration("drain", 10*time.Second, "max time to wait for in-flight requests on shutdown")
		restarts  = fs.Int("restarts", 0, "supervised restarts: if the HTTP server dies unexpectedly, re-listen and keep serving up to this many times")

		logFmt   = fs.String("log", "text", "log format: text | json | off")
		logLevel = fs.String("log-level", "info", "log level: debug | info | warn | error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	handler, err := obs.NewLogHandler(stderr, *logFmt, level)
	if err != nil {
		return err
	}
	logger := slog.New(handler)

	var m *cluster.Map
	switch {
	case *mapPath != "" && *backends != "":
		return fmt.Errorf("-map and -backends are mutually exclusive")
	case *mapPath != "":
		if m, err = cluster.Load(*mapPath); err != nil {
			return err
		}
		logger.Info("shard map loaded", "path", *mapPath, "n", m.N, "shards", len(m.Shards))
	case *backends != "":
		if m, err = deriveMap(*backends, *seed, *probeWait); err != nil {
			return err
		}
		logger.Info("shard map derived from backends", "n", m.N, "shards", len(m.Shards), "fingerprint", m.Fingerprint)
	default:
		return fmt.Errorf("need -map or -backends")
	}

	// Retry, hedge, deadline, batch and rollout pacing run at
	// cluster.Options' defaults (the hedge delay derives from the measured
	// p99): one value each was ever in use, so they are not flags.
	router, err := cluster.NewRouter(cluster.Options{Map: m, Seed: *seed, Log: logger})
	if err != nil {
		return err
	}

	// Supervised serve loop, shared with apspd. The router itself is ready
	// as soon as /healthz responds — 200 or 503: a degraded cluster verdict
	// still proves the router is serving, and backends may come up after it.
	err = cli.Serve(cli.ServeConfig{
		Addr: *addr, AddrFile: *addrFile, Handler: router.Handler(),
		Ready:    func(int) bool { return true },
		Restarts: *restarts, Drain: *drainWait, Log: logger,
		Serving: func(bound string) { logger.Info("routing", "addr", bound, "shards", len(m.Shards)) },
		ReadyCh: ready,
	})
	if err != nil {
		return err
	}
	logger.Info("drained, bye")
	return nil
}

// deriveMap builds a contiguous shard map from a -backends spec by probing
// the backends for the graph's node count and fingerprint: every reachable
// backend must agree, and the first answer fixes the map.
func deriveMap(spec string, seed int64, wait time.Duration) (*cluster.Map, error) {
	var replicaSets [][]string
	for _, shard := range strings.Split(spec, ",") {
		var reps []string
		for _, r := range strings.Split(shard, "|") {
			if r = strings.TrimSpace(r); r != "" {
				reps = append(reps, r)
			}
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("empty shard in -backends %q", spec)
		}
		replicaSets = append(replicaSets, reps)
	}
	n, fp, err := probeBackends(replicaSets, seed, wait)
	if err != nil {
		return nil, err
	}
	return cluster.NewContiguous(n, fp, replicaSets)
}

// probeBackends polls each shard's replicas until one answers /healthz,
// then cross-checks that every shard reports the same graph.
func probeBackends(replicaSets [][]string, seed int64, wait time.Duration) (n int, fp string, err error) {
	cl := client.New(client.Options{AttemptTimeout: 2 * time.Second, MaxAttempts: 1, BreakerTrip: -1, Seed: seed})
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	for k, reps := range replicaSets {
		var h oracle.Health
		var lastErr error
		for {
			for _, base := range reps {
				var probe oracle.Health
				resp, err := cl.GetJSON(ctx, base+"/healthz", &probe)
				if err != nil {
					lastErr = err
					continue
				}
				if resp.Status != http.StatusOK {
					lastErr = fmt.Errorf("%s/healthz answered HTTP %d", base, resp.Status)
					continue
				}
				h = probe
				lastErr = nil
				break
			}
			if lastErr == nil || ctx.Err() != nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if lastErr != nil {
			return 0, "", fmt.Errorf("shard %d: no replica answered: %w", k, lastErr)
		}
		if h.N <= 0 {
			return 0, "", fmt.Errorf("shard %d reports n=%d", k, h.N)
		}
		if n == 0 {
			n, fp = h.N, h.Fingerprint
		} else if h.N != n || h.Fingerprint != fp {
			return 0, "", fmt.Errorf("shard %d serves n=%d fp=%s, shard 0 serves n=%d fp=%s (mixed graphs)",
				k, h.N, h.Fingerprint, n, fp)
		}
	}
	return n, fp, nil
}
