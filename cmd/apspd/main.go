// Command apspd is the distance-oracle daemon: it computes (or resumes
// from a checkpoint) an all-pairs / multi-source shortest-path result with
// one of the repository's distributed algorithms, repacks it into the
// sharded in-memory column store of internal/oracle, and serves point,
// path and batch queries over HTTP/JSON.
//
// Usage:
//
//	apspd -addr :8080 -alg pipeline -n 256 -m 1024 -sources 0,5,9
//	apspd -addr :8080 -graph g.txt -alg blocker           # dist-only family
//	apspd -addr :8080 -graph g.txt -load run.ckpt          # resume apsprun checkpoint
//	apspd -addr :8080 -backend parallel -n 2048 -m 16384   # shared-memory bootstrap
//	apspd -addr 127.0.0.1:0 -addr-file port.txt -n 64 -m 256
//	apspd -addr :8081 -graph g.txt -shard 0/3              # cluster backend: shard 0 of 3
//
// Cluster mode: -shard k/N computes and serves only the contiguous source
// range internal/cluster.Range assigns to shard k of N, and stamps the
// shard identity plus the serving generation on every response
// (X-Apsp-Shard / X-Apsp-Generation) — the contract cmd/apsprouter
// scatter-gathers over.
//
// Endpoints: /dist, /path, /batch, /healthz, /metrics (Prometheus text, or
// OpenMetrics with trace exemplars via Accept negotiation), /debug/live
// (SSE heartbeat: QPS, inflight, generation, recompute progress + ETA),
// /admin/recompute (background rebuild + atomic snapshot swap), and
// /debug/pprof. The server sheds load with 429 beyond its admission
// ceiling, bounds every request by a deadline (both oracle.Server's
// defaults), and drains gracefully on SIGINT/SIGTERM (in-flight requests
// finish; exit code 0).
//
// Observability: -trace writes every sampled request's span tree as JSONL
// plus a Chrome trace_event file at <base>.chrome.json where serving spans
// and engine recompute phases share one timeline. Requests carrying a W3C
// traceparent header keep their trace ID; the server echoes the header on
// every traced response. -log selects text | json | off structured logging
// (slow queries ≥ -slow log at WARN with their trace ID). -trace-sample N
// head-samples one in N requests; slow and failed requests are always
// captured.
//
// -load points at a checkpoint file written by apsprun -checkpoint; the
// daemon validates it against the graph and flags (same gate as apsprun
// -resume), finishes the computation from the snapshot, and serves the
// result. POST /admin/recompute rebuilds from scratch with the same spec
// and atomically publishes the new snapshot: queries in flight during the
// swap are answered entirely by the old or entirely by the new generation,
// never a mix.
//
// Self-healing: -autosave-dir persists every published snapshot (atomic
// write + fsync + pruned history) and boots straight from the newest
// valid one after a crash — corrupt autosaves are quarantined, never
// served. -restarts N supervises the HTTP server and re-listens on the
// same port if it dies. A failed recompute keeps the previous generation
// serving ("stale" on /healthz). Under load the server degrades in rungs
// (path-cache inserts off → dist-only → 429 with Retry-After) instead of
// falling over. -chaos-http injects listener-level faults for chaos
// drills (scripts/chaos_smoke.sh); -addr-file is written only after
// /healthz answers through the real listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/congest"
	"repro/internal/httpfault"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/trace"
)

// pathCacheEntries sizes the /path LRU. Like the server's admission
// ceiling, deadline and batch budget (oracle.Server's defaults), it has
// one value in use — every ledger number was measured at it — so it is a
// constant, not a flag.
const pathCacheEntries = 4096

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "apspd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for tests: args are the command-line
// arguments (without argv[0]), ready (when non-nil) receives the bound
// address once the listener is serving, and the function returns when the
// server drains after a signal (or fails to start).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("apspd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free one)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once serving (for scripts)")

		shardArg  = fs.String("shard", "", "serve shard k/N of the source dimension (cluster mode; excludes -sources)")
		loadPath  = fs.String("load", "", "resume the compute from this apsprun checkpoint file")
		drainWait = fs.Duration("drain", 10*time.Second, "max time to wait for in-flight requests on shutdown")

		autosaveDir  = fs.String("autosave-dir", "", "persist every published snapshot here and auto-recover the newest valid one at boot (empty = off)")
		autosaveKeep = fs.Int("autosave-keep", 3, "autosaved generations to keep (older ones are pruned; quarantined files always survive)")
		restarts     = fs.Int("restarts", 0, "supervised restarts: if the HTTP server dies unexpectedly, re-listen and keep serving up to this many times")
		chaosHTTP    = fs.String("chaos-http", "", "wrap the listener in httpfault chaos with this plan (httpfault.Parse syntax; for chaos drills, never production)")
		chaosKill    = fs.Float64("chaos-kill", 0, "probability an accepted connection is killed mid-stream (requires -chaos-http)")

		logFmt      = fs.String("log", "text", "log format: text | json | off")
		logLevel    = fs.String("log-level", "info", "log level: debug | info | warn | error")
		logEvery    = fs.Int("log-every", 0, "debug-log one in N completed queries (0 = off)")
		slow        = fs.Duration("slow", 100*time.Millisecond, "slow-query threshold: slower queries log at WARN and are always traced (0 = off)")
		tracePath   = fs.String("trace", "", "write request span trees here as JSONL, plus a Chrome trace_event file at <base>.chrome.json")
		traceSample = fs.Int("trace-sample", 1, "head-sample one in N requests (0 = only slow/failed requests are traced)")
	)
	rf := cli.RunFlags{N: 64, M: 256}
	rf.Register(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	var chaosPlan httpfault.Plan
	if *chaosHTTP != "" {
		var err error
		if chaosPlan, err = httpfault.Parse(*chaosHTTP); err != nil {
			return err
		}
	} else if *chaosKill != 0 {
		return fmt.Errorf("-chaos-kill requires -chaos-http (a plan supplies the seed)")
	}
	if *chaosKill < 0 || *chaosKill > 1 {
		return fmt.Errorf("-chaos-kill %v outside [0,1]", *chaosKill)
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	handler, err := obs.NewLogHandler(stderr, *logFmt, level)
	if err != nil {
		return err
	}
	logger := slog.New(trace.LogHandler(handler))

	g, desc, err := rf.Resolve()
	if err != nil {
		return err
	}
	sources := desc.Sources
	// Cluster mode: -shard k/N replaces the explicit source list with the
	// balanced contiguous range cluster.Range assigns shard k — the same
	// arithmetic the router's shard map uses, so ownership agrees by
	// construction. The shard identity is stamped on every response.
	var shardID string
	if *shardArg != "" {
		if rf.Sources != "" {
			return fmt.Errorf("-shard and -sources are mutually exclusive (the shard defines the sources)")
		}
		k, nShards, err := cluster.ParseShardID(*shardArg)
		if err != nil {
			return err
		}
		lo, hi := cluster.Range(g.N(), k, nShards)
		if lo >= hi {
			return fmt.Errorf("-shard %s owns no sources of an n=%d graph", *shardArg, g.N())
		}
		sources = sources[:0]
		for s := lo; s < hi; s++ {
			sources = append(sources, s)
		}
		shardID = cluster.FormatShardID(k, nShards)
	}

	// Tracing: the span JSONL and the Chrome file are both optional and
	// both hang off -trace. The engine recorder shares the Chrome sink, so
	// recompute phase rounds (PID 1) and serving spans (PID 2) land on one
	// timeline; the tracer must close first (it feeds the Chrome sink).
	var (
		tracer     *trace.Tracer
		engineRec  *obs.Recorder
		chromeFile string
	)
	if *tracePath != "" {
		jsonl, err := obs.CreateJSONL(*tracePath)
		if err != nil {
			return err
		}
		chromeFile = cli.ChromePath(*tracePath)
		chrome, err := obs.CreateChrome(chromeFile)
		if err != nil {
			jsonl.Close()
			return err
		}
		tracer = trace.New(trace.Options{
			SampleEvery:   *traceSample,
			SlowThreshold: *slow,
			Seed:          uint64(rf.Seed),
			Sinks:         []trace.Sink{trace.JSONL{JSONL: jsonl}, trace.NewChrome(chrome)},
		})
		engineRec = obs.NewRecorder(chrome)
	}
	defer func() {
		if err := tracer.Close(); err != nil {
			logger.Warn("trace close", "err", err)
		}
		if engineRec != nil {
			if err := engineRec.Close(); err != nil {
				logger.Warn("trace close", "err", err)
			}
		}
	}()

	met := oracle.NewMetrics()
	progress := &congest.Progress{}
	engineObs := congest.Observer(progress)
	if engineRec != nil {
		engineObs = congest.Tee(engineRec, progress)
	}

	desc.Engine.Observer = engineObs
	spec := oracle.ComputeSpec{
		Alg: desc.Alg, Backend: desc.Backend, Sources: sources, H: desc.H, Engine: desc.Engine,
		Plan: rf.Faults, FaultSeed: rf.FaultSeed,
	}
	if *loadPath != "" {
		if !flagWasSet(fs, "alg") {
			spec.Alg = "" // adopt the algorithm recorded in the checkpoint
		}
		loadStart := time.Now()
		if err := oracle.LoadCheckpoint(*loadPath, g, &spec); err != nil {
			return err
		}
		loadDur := time.Since(loadStart)
		met.CheckpointLoad.Set(loadDur.Seconds())
		logger.Info("resuming from checkpoint",
			"alg", spec.Alg, "path", *loadPath, "loadDur", loadDur)
	}
	fp := checkpoint.Fingerprint(g)

	// buildSnapshot runs the compute phase and repacks the result; the
	// initial build uses the (possibly resumed) spec, recomputes always
	// start from scratch.
	buildSnapshot := func(ctx context.Context, sp oracle.ComputeSpec) (*oracle.Snapshot, error) {
		in, err := oracle.Compute(ctx, g, sp)
		if err != nil {
			return nil, err
		}
		return oracle.Build(g, in, oracle.BuildOpts{Fingerprint: fp})
	}

	// Boot recovery: the newest valid autosaved snapshot (same graph
	// fingerprint) boots the daemon instantly after a crash — corrupt
	// files are quarantined by RecoverDir and the next-newest tried. A
	// recovered boot can still be refreshed via POST /admin/recompute.
	var snap *oracle.Snapshot
	if *autosaveDir != "" {
		if err := os.MkdirAll(*autosaveDir, 0o755); err != nil {
			return err
		}
		rsnap, rpath, err := oracle.RecoverDir(*autosaveDir, g, fp, logger)
		if err != nil {
			return err
		}
		if rsnap != nil {
			snap = rsnap
			logger.Info("recovered snapshot from autosave",
				"path", rpath, "alg", snap.Alg(), "k", snap.K(), "paths", snap.HasPaths())
		}
	}
	if snap == nil {
		logger.Info("computing", "alg", spec.Alg, "n", g.N(), "m", g.M(), "k", len(sources))
		start := time.Now()
		if snap, err = buildSnapshot(context.Background(), spec); err != nil {
			return err
		}
		progress.Done()
		logger.Info("snapshot ready",
			"dur", time.Since(start).Round(time.Millisecond), "alg", snap.Alg(),
			"k", snap.K(), "paths", snap.HasPaths(),
			"rounds", snap.Stats().Rounds, "messages", snap.Stats().Messages)
	}

	srv := &oracle.Server{
		Store: &oracle.Store{}, Cache: oracle.NewPathCache(pathCacheEntries), Met: met,
		Log: logger, Tracer: tracer, SlowQuery: *slow, LogEvery: *logEvery, Progress: progress,
		ShardID: shardID,
	}
	freshSpec := spec
	freshSpec.Resume = nil // recomputes never replay the startup checkpoint
	srv.Recompute = func(ctx context.Context) (*oracle.Snapshot, error) {
		return buildSnapshot(ctx, freshSpec)
	}
	if *autosaveDir != "" {
		// Autosave every published generation (boot and recompute alike):
		// atomic write + fsync, prune old generations. Failures degrade
		// durability, never serving — they log and move on.
		srv.AfterPublish = oracle.Autosave(*autosaveDir, *autosaveKeep, logger)
	}
	srv.Publish(snap)

	// Supervised serve loop: an unexpected server death (listener error,
	// chaos kill of the accept loop) re-listens on the same bound address
	// up to -restarts times. Ready means /healthz answers 200 through the
	// real listener.
	cfg := cli.ServeConfig{
		Addr: *addr, AddrFile: *addrFile, Handler: srv.Handler(),
		Ready:    func(status int) bool { return status == http.StatusOK },
		Restarts: *restarts, Drain: *drainWait, Log: logger,
		Serving: func(bound string) { logger.Info("serving", "addr", bound) },
		ReadyCh: ready,
	}
	if *chaosHTTP != "" {
		cfg.Wrap = func(ln net.Listener) net.Listener { return httpfault.WrapListener(ln, chaosPlan, *chaosKill) }
	}
	if err := cli.Serve(cfg); err != nil {
		return err
	}
	if tracer != nil {
		logger.Info("trace written",
			"spans", *tracePath, "chrome", chromeFile, "traces", tracer.Emitted())
	}
	logger.Info("drained, bye")
	return nil
}

func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
