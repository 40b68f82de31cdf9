// Command apsprun runs one of the repository's distributed shortest-path
// algorithms on a graph (from a file, or generated on the fly) and prints
// the distances, the CONGEST cost, and — when -check is set — a validation
// against the sequential Dijkstra oracle.
//
// Observability: -trace writes a phase-attributed JSONL event stream plus
// a Chrome trace_event file (open in chrome://tracing or Perfetto) next to
// it; -metrics writes a Prometheus text dump; -phases prints the per-phase
// cost table; -json / -stats-json emit the aggregate + per-phase report as
// JSON (stdout / file). Status lines go to stderr through a structured
// logger: -log selects text | json | off, -log-level the threshold; result
// data on stdout is unaffected.
//
// Usage:
//
//	apsprun -alg pipeline -graph g.txt -sources 0,5,9
//	apsprun -alg blocker -n 48 -m 160 -zero 0.3 -check
//	apsprun -alg blocker -n 64 -m 256 -phases -trace trace.jsonl
//	apsprun -alg approx -eps 0.25 -n 32 -m 96 -json
//	apsprun -alg shortrange -graph g.txt -sources 0 -h 8
//	apsprun -alg bellman -n 32 -m 96 -h 6 -sources 0,1,2 -check
//	apsprun -alg pipeline -n 256 -m 1024 -sched dense -workers 4
//	apsprun -alg blocker -n 48 -m 160 -faults all -fault-seed 7 -check
//	apsprun -backend parallel -n 1024 -m 8192 -quiet
//
// -backend selects the compute substrate: "congest" (default) simulates
// the message-passing engine round by round; "parallel" runs the
// shared-memory backend of internal/compute (work-stealing per-source
// Dijkstra or cache-blocked Floyd–Warshall, auto-picked by density) for
// the same exact distances at production sizes. The parallel backend has
// no rounds, faults, or checkpoints; flags that configure those are
// rejected rather than ignored.
//
// -sched selects the engine scheduler (active-set by default; dense steps
// every node every round) and -workers the per-round goroutine count; both
// leave results and CONGEST costs bit-identical.
//
// -faults runs the engine over an adversarial physical network (see
// internal/faults): "all" for the standard chaos plan, or a custom plan
// like "delay=4,drop=0.2,dup=0.1,reorder". The reliability shim keeps
// distances, parents and the logical CONGEST costs bit-identical to the
// fault-free run; the extra physical-delivery work is reported separately
// (and lands in -trace / -metrics / -json when enabled). -fault-seed keys
// the fault PRF when the plan itself doesn't carry a seed term.
//
// Crash faults and checkpointing:
//
//	apsprun -alg pipeline -n 48 -m 160 -checkpoint run.ckpt -checkpoint-every 8
//	apsprun -alg pipeline -n 48 -m 160 -resume run.ckpt
//	apsprun -alg pipeline -n 48 -m 160 -crash 3@10+1 -checkpoint-every 1 -checkpoint run.ckpt
//
// -checkpoint writes versioned engine snapshots to a file (atomically,
// each overwriting the last); -checkpoint-every takes one every N rounds,
// and SIGINT/SIGTERM write a final snapshot before exiting cleanly, so an
// interrupted run is always resumable. -resume restores a snapshot — the
// resumed run is bit-identical to an uninterrupted one — after validating
// the checkpoint's metadata (graph fingerprint, sources, fault plan,
// scheduler) against the flags. -crash injects scripted crash-stop node
// faults ("v@r" kills node v at round r; "v@r+k" allows a restart k rounds
// later); recoverable crashes are supervised, restarting from the latest
// checkpoint up to -restarts times. -checkpoint-stop snapshots at an exact
// round and stops, for drills and demos.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/approx"
	"repro/internal/bellman"
	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/compute"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/obs"
	"repro/internal/scaling"
	"repro/internal/shortrange"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "apsprun: %v\n", err)
		os.Exit(1)
	}
}

// run is the command body, factored so tests can drive it with arbitrary
// arguments and capture the output. Status lines go to stderr through the
// structured logger; result data goes to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("apsprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg       = fs.String("alg", "pipeline", "pipeline | blocker | scaling | approx | shortrange | bellman")
		backend   = fs.String("backend", "congest", "compute substrate: congest (simulated engine) | parallel (shared-memory internal/compute)")
		file      = fs.String("graph", "", "graph file (empty = generate)")
		grid      = fs.String("grid", "", "ROWSxCOLS: generate a grid graph instead of a random one")
		n         = fs.Int("n", 32, "nodes (generated graphs)")
		m         = fs.Int("m", 96, "edges (generated graphs)")
		maxW      = fs.Int64("maxw", 8, "max weight (generated graphs)")
		zero      = fs.Float64("zero", 0.25, "zero-weight fraction (generated graphs)")
		seed      = fs.Int64("seed", 1, "seed (generated graphs)")
		srcsArg   = fs.String("sources", "", "comma-separated sources (empty = all)")
		h         = fs.Int("h", 0, "hop parameter (0 = automatic where applicable)")
		eps       = fs.Float64("eps", 0.5, "target stretch − 1 (approx)")
		check     = fs.Bool("check", false, "validate against Dijkstra")
		quiet     = fs.Bool("quiet", false, "suppress the distance matrix")
		timeline  = fs.Bool("timeline", false, "print a per-round message sparkline (pipeline only)")
		listTrace = fs.Bool("listtrace", false, "dump per-node list events to stderr (pipeline only; single-worker)")
		tracePath = fs.String("trace", "", "write a JSONL event trace here, plus a Chrome trace_event file at <base>.chrome.json")
		metrics   = fs.String("metrics", "", "write a Prometheus text metrics dump here")
		statsJSON = fs.String("stats-json", "", "write the aggregate + per-phase stats report (JSON) here")
		jsonOut   = fs.Bool("json", false, "print the stats report as JSON on stdout (suppresses the human summary)")
		phases    = fs.Bool("phases", false, "print the per-phase cost breakdown table")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = automatic)")
		schedArg  = fs.String("sched", "active", "engine scheduler: active | dense")
		faultsArg = fs.String("faults", "", `adversarial network plan: "all", or terms like "delay=4,drop=0.2,dup=0.1,reorder" (empty = perfect delivery)`)
		faultSeed = fs.Int64("fault-seed", 0, "fault PRF seed (used when the -faults plan has no seed term)")
		ckptPath  = fs.String("checkpoint", "", "write engine checkpoints to this file (atomic; SIGINT/SIGTERM write a final one)")
		ckptEvery = fs.Int("checkpoint-every", 0, "snapshot every N rounds (0 = only on signal)")
		ckptStop  = fs.Int("checkpoint-stop", 0, "snapshot at exactly this round of the first engine run, then stop")
		resumeArg = fs.String("resume", "", "resume from a checkpoint file written by -checkpoint")
		crashArg  = fs.String("crash", "", `scripted crash-stop faults: "v@r" (node v crashes at round r, unrecoverable) or "v@r+k" (restart allowed k rounds later), comma-separated`)
		restarts  = fs.Int("restarts", 3, "restart budget for recoverable crashes")
		logFmt    = fs.String("log", "text", "status log format on stderr: text | json | off")
		logLevel  = fs.String("log-level", "info", "status log level: debug | info | warn | error")
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

	sched, err := cli.ParseScheduler(*schedArg)
	if err != nil {
		return err
	}

	g, err := cli.LoadGraph(*file, *grid, *n, *m, *maxW, *zero, *seed)
	if err != nil {
		return err
	}
	sources, err := cli.ParseSources(*srcsArg, g.N())
	if err != nil {
		return err
	}

	switch *backend {
	case "congest":
	case "parallel":
		// The shared-memory backend has no rounds to fault, checkpoint,
		// or trace; every engine-only flag is rejected loudly so a script
		// never silently loses the semantics it asked for.
		for flagName, set := range map[string]bool{
			"-alg (only pipeline semantics)": *alg != "pipeline",
			"-h":                             *h != 0,
			"-faults":                        *faultsArg != "" && *faultsArg != "none",
			"-crash":                         *crashArg != "",
			"-checkpoint":                    *ckptPath != "",
			"-checkpoint-every":              *ckptEvery > 0,
			"-checkpoint-stop":               *ckptStop > 0,
			"-resume":                        *resumeArg != "",
			"-timeline":                      *timeline,
			"-listtrace":                     *listTrace,
			"-trace":                         *tracePath != "",
			"-metrics":                       *metrics != "",
			"-stats-json":                    *statsJSON != "",
			"-json":                          *jsonOut,
			"-phases":                        *phases,
		} {
			if set {
				return fmt.Errorf("%s needs the congest backend (the parallel backend computes exact unrestricted APSP with no simulated rounds)", flagName)
			}
		}
		return runParallel(stdout, logger, g, sources, *workers, *check, *quiet)
	default:
		return fmt.Errorf("unknown -backend %q (want congest | parallel)", *backend)
	}

	// Observability: attach a Recorder only when asked for, so the
	// engine's nil-observer fast path stays in effect otherwise.
	var rec *obs.Recorder
	chrome := ""
	if *tracePath != "" || *metrics != "" || *statsJSON != "" || *jsonOut || *phases {
		var sinks []obs.Sink
		if *tracePath != "" {
			j, err := obs.CreateJSONL(*tracePath)
			if err != nil {
				return err
			}
			chrome = cli.ChromePath(*tracePath)
			c, err := obs.CreateChrome(chrome)
			if err != nil {
				return err
			}
			sinks = append(sinks, j, c)
		}
		if *metrics != "" {
			ms, err := obs.CreateMetrics(*metrics)
			if err != nil {
				return err
			}
			sinks = append(sinks, ms)
		}
		rec = obs.NewRecorder(sinks...)
	}
	var tl congest.Timeline
	observer := congest.Observer(nil)
	if rec != nil {
		observer = rec
	}
	if *timeline {
		observer = congest.Tee(observer, tl.Observer())
	}

	// Adversarial delivery: a non-empty -faults plan swaps the engine's
	// perfect delivery for the faults.Network reliability shim.
	var (
		fnet    *faults.Network
		network congest.Network
	)
	if *faultsArg != "" && *faultsArg != "none" {
		plan, err := faults.Parse(*faultsArg)
		if err != nil {
			return err
		}
		if plan.Seed == 0 {
			plan.Seed = *faultSeed
		}
		fnet = faults.New(plan)
		if rec != nil {
			fnet.Sink = rec
		}
		network = fnet
	}

	// Scripted crash-stop faults ride on the faults.Network; injecting
	// crashes without a -faults plan engages the shim with a perfect wire.
	crashes, err := parseCrashes(*crashArg)
	if err != nil {
		return err
	}
	if len(crashes) > 0 {
		if fnet == nil {
			fnet = faults.New(faults.Plan{Seed: *faultSeed})
			if rec != nil {
				fnet.Sink = rec
			}
			network = fnet
		}
		fnet.Script = append(fnet.Script, crashes...)
	}

	// Checkpoint policy: a Keeper retains the latest snapshot in memory
	// (the supervisor's restart point) and persists each one to -checkpoint
	// when set. With Every == 0 the only snapshots are the final one a
	// signal triggers and the -checkpoint-stop drill.
	planStr := ""
	if fnet != nil {
		planStr = fnet.Plan.String()
	}
	var (
		keeper *checkpoint.Keeper
		pol    *congest.CheckpointPolicy
	)
	if *ckptPath != "" || *ckptEvery > 0 || *ckptStop > 0 || *resumeArg != "" {
		meta := &checkpoint.Meta{
			Alg: *alg, N: g.N(), M: g.M(), Graph: checkpoint.Fingerprint(g),
			Sources: sources, H: *h, Plan: planStr, Sched: sched, Workers: *workers,
		}
		keeper = &checkpoint.Keeper{Path: *ckptPath, Meta: meta}
		if fnet != nil {
			keeper.MetaFn = func(m *checkpoint.Meta) { m.Disarmed = fnet.DisarmedCrashes() }
		}
		if rec != nil {
			// Each persisted snapshot's save cost lands in the event trace
			// and the metrics dump (congest_checkpoint_write_* series).
			keeper.OnSave = rec.CheckpointSave
		}
		pol = &congest.CheckpointPolicy{Every: *ckptEvery, AtRound: *ckptStop, Stop: *ckptStop > 0, Sink: keeper.Sink}
	}
	if *resumeArg != "" {
		loadStart := time.Now()
		meta, snap, err := checkpoint.Load(*resumeArg)
		if err != nil {
			return err
		}
		if rec != nil {
			var bytes int64
			if fi, err := os.Stat(*resumeArg); err == nil {
				bytes = fi.Size()
			}
			rec.CheckpointLoad(time.Since(loadStart), bytes)
		}
		if meta.Alg != "" && meta.Alg != *alg {
			return fmt.Errorf("checkpoint %s was taken by -alg %s, not %s", *resumeArg, meta.Alg, *alg)
		}
		if err := meta.ValidateAgainst(g, sources, *h, planStr, sched); err != nil {
			return err
		}
		if fnet != nil {
			fnet.DisarmCrashes(meta.Disarmed)
		}
		pol.Resume = snap
	}

	// SIGINT/SIGTERM cancel the context; the engine notices at the next
	// round barrier, writes a final snapshot to the policy sink, and
	// returns an error wrapping context.Canceled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var (
		dist      [][]int64
		stats     congest.Stats
		extra     string
		hopUsed   int // 0 = unrestricted semantics (validate vs Dijkstra)
		approxRes *approx.Result
	)
	// runAlg executes one full attempt of the selected algorithm. The
	// supervisor re-invokes it after a recoverable crash: the policy's
	// resume point then replays the computation up to the latest snapshot.
	runAlg := func() error {
		switch *alg {
		case "pipeline":
			hopBound := *h
			if hopBound == 0 {
				hopBound = g.N() - 1
			} else {
				hopUsed = hopBound
			}
			copts := core.Opts{Sources: sources, H: hopBound, Workers: *workers, Scheduler: sched, Obs: observer, Network: network, Checkpoint: pol, Ctx: ctx}
			if *listTrace {
				copts.Trace = func(format string, args ...interface{}) {
					fmt.Fprintf(stderr, format+"\n", args...)
				}
			}
			res, err := core.Run(g, copts)
			if err != nil {
				return err
			}
			dist, stats = res.Dist, res.Stats
			extra = fmt.Sprintf("bound=%d late=%d maxList=%d", res.Bound, res.LateSends, res.MaxListLen)
		case "blocker":
			res, err := hssp.Run(g, hssp.Opts{Sources: sources, H: *h, Workers: *workers, Scheduler: sched, Obs: observer, Network: network, Checkpoint: pol, Ctx: ctx})
			if err != nil {
				return err
			}
			dist, stats = res.Dist, res.Stats
			extra = fmt.Sprintf("h=%d |Q|=%d phases=%v", res.H, len(res.Q), res.PhaseRounds)
		case "approx":
			res, err := approx.Run(g, approx.Opts{Sources: sources, Eps: *eps, Workers: *workers, Scheduler: sched, Obs: observer, Network: network, Checkpoint: pol, Ctx: ctx})
			if err != nil {
				return err
			}
			approxRes, stats = res, res.Stats
			extra = fmt.Sprintf("scales=%d", res.Scales)
		case "scaling":
			res, err := scaling.Run(g, scaling.Opts{Sources: sources, Workers: *workers, Scheduler: sched, Obs: observer, Network: network, Checkpoint: pol, Ctx: ctx})
			if err != nil {
				return err
			}
			dist, stats = res.Dist, res.Stats
			extra = fmt.Sprintf("phases=%d", res.Bits+1)
		case "shortrange":
			hopBound := *h
			if hopBound == 0 {
				hopBound = 8
			}
			res, err := shortrange.Run(g, shortrange.Opts{Sources: sources, H: hopBound, Workers: *workers, Scheduler: sched, Obs: observer, Network: network, Checkpoint: pol, Ctx: ctx})
			if err != nil {
				return err
			}
			dist, stats = res.Dist, res.Stats
			extra = fmt.Sprintf("snapRound=%d congestion=%d", res.SnapRound, stats.MaxLinkCongestion)
		case "bellman":
			hopBound := *h
			if hopBound == 0 {
				hopBound = g.N() - 1
			} else {
				hopUsed = hopBound
			}
			res, err := bellman.Run(g, bellman.Opts{Sources: sources, H: hopBound, Workers: *workers, Scheduler: sched, Obs: observer, Network: network, Checkpoint: pol, Ctx: ctx})
			if err != nil {
				return err
			}
			dist, stats = res.Dist, res.Stats
		default:
			return fmt.Errorf("unknown algorithm %q", *alg)
		}
		return nil
	}

	var runErr error
	if keeper != nil {
		// Recoverable crashes restart from the latest snapshot; anything
		// else falls through to the error handling below.
		var n int
		n, runErr = checkpoint.Supervise(pol, keeper, *restarts, runAlg)
		if n > 0 {
			logger.Info("recovered via checkpoint restart", "crashes", n)
		}
	} else {
		runErr = runAlg()
	}
	if runErr != nil {
		switch {
		case errors.Is(runErr, congest.ErrCheckpointStop):
			// The -checkpoint-stop drill: the snapshot is on disk, exit
			// cleanly so scripts can resume it.
			reportCheckpoint(stdout, logger, keeper, *ckptPath, "stopped at checkpoint")
			return nil
		case ctx.Err() != nil:
			// SIGINT/SIGTERM: the engine wrote a final snapshot on its way
			// out; report the partial cost from it and exit cleanly.
			reportCheckpoint(stdout, logger, keeper, *ckptPath, "interrupted")
			return nil
		default:
			return runErr
		}
	}
	if *timeline && *alg == "pipeline" {
		fmt.Fprintf(stdout, "activity (peak %d msgs/round): %s\n", tl.Peak(), tl.Sparkline(72))
	}
	if approxRes != nil {
		if *check {
			stretch, mism := approx.CheckStretch(g, approxRes)
			logger.Info("check", "maxStretch", fmt.Sprintf("%.4f", stretch),
				"claim", fmt.Sprintf("≤ %.2f", 1+*eps), "mismatches", mism)
		}
		if !*quiet && !*jsonOut {
			for i := range sources {
				for v := 0; v < g.N(); v++ {
					fmt.Fprintf(stdout, "approx(%d,%d) = %.3f\n", sources[i], v, approxRes.Value(i, v))
				}
			}
		}
		return finish(stdout, logger, rec, fnet, *alg, g, len(sources), stats, extra, *jsonOut, *phases, *statsJSON, *tracePath, chrome, *metrics)
	}

	if *check {
		wrong := 0
		oracle := "Dijkstra"
		for i, s := range sources {
			var want []int64
			if hopUsed > 0 {
				want = graph.HHopDistances(g, s, hopUsed)
				oracle = fmt.Sprintf("%d-hop DP", hopUsed)
			} else {
				want = graph.Dijkstra(g, s)
			}
			for v := 0; v < g.N(); v++ {
				if dist[i][v] != want[v] {
					wrong++
				}
			}
		}
		logger.Info("check", "oracle", oracle, "wrong", wrong, "of", len(sources)*g.N())
	}
	if !*quiet && !*jsonOut {
		printDistances(stdout, sources, dist, g.N())
	}
	return finish(stdout, logger, rec, fnet, *alg, g, len(sources), stats, extra, *jsonOut, *phases, *statsJSON, *tracePath, chrome, *metrics)
}

// runParallel is the -backend parallel body: the shared-memory compute
// backend on the same graph and sources, printing distances in the exact
// format of the congest path so outputs diff cleanly across backends. The
// cost summary reports the chosen kernel instead of rounds.
func runParallel(stdout io.Writer, logger *slog.Logger, g *graph.Graph, sources []int, workers int, check, quiet bool) error {
	start := time.Now()
	res, err := compute.APSP(g, compute.Opts{Sources: sources, Workers: workers})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if check {
		wrong := 0
		for i, s := range sources {
			want := graph.Dijkstra(g, s)
			for v := 0; v < g.N(); v++ {
				if res.Dist[i][v] != want[v] {
					wrong++
				}
			}
		}
		logger.Info("check", "oracle", "Dijkstra", "wrong", wrong, "of", len(sources)*g.N())
	}
	if !quiet {
		printDistances(stdout, sources, res.Dist, g.N())
	}
	fmt.Fprintf(stdout, "kernel=%s workers=%d wall=%s\n", res.Kernel, res.Workers, wall.Round(time.Microsecond))
	return nil
}

// printDistances renders one "d(src,v) = dist" line per pair — the shared
// result format of both backends.
func printDistances(stdout io.Writer, sources []int, dist [][]int64, n int) {
	for i, s := range sources {
		for v := 0; v < n; v++ {
			d := "inf"
			if dist[i][v] < graph.Inf {
				d = strconv.FormatInt(dist[i][v], 10)
			}
			fmt.Fprintf(stdout, "d(%d,%d) = %s\n", s, v, d)
		}
	}
}

// finish prints the cost summary, the optional per-phase table and JSON
// report, and flushes the trace/metrics sinks.
func finish(stdout io.Writer, logger *slog.Logger, rec *obs.Recorder, fnet *faults.Network, alg string, g *graph.Graph, k int, stats congest.Stats, extra string,
	jsonOut, phases bool, statsJSON, tracePath, chromePath, metricsPath string) error {
	if !jsonOut {
		fmt.Fprintf(stdout, "rounds=%d messages=%d maxCongestion=%d %s\n",
			stats.Rounds, stats.Messages, stats.MaxLinkCongestion, extra)
		if fnet != nil {
			p := fnet.Phys()
			fmt.Fprintf(stdout, "phys: plan=%s sends=%d retransmits=%d dataDrops=%d ackDrops=%d dupDeliveries=%d subRounds=%d\n",
				fnet.Plan, p.DataSends, p.Retransmits, p.DataDrops, p.AckDrops, p.DupDeliveries, p.SubRounds)
		}
	}
	if rec == nil {
		return nil
	}
	rep := rec.ReportOf(alg, g.N(), g.M(), k)
	if phases {
		printPhases(stdout, rep)
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if statsJSON != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(statsJSON, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := rec.Close(); err != nil {
		return err
	}
	if tracePath != "" {
		logger.Info("trace written", "jsonl", tracePath, "chrome", chromePath)
	}
	if metricsPath != "" {
		logger.Info("metrics written", "path", metricsPath)
	}
	return nil
}

// printPhases renders the per-phase breakdown; the totals row is the
// Stats.Add fold of the rows above it and matches the algorithm's
// aggregate exactly.
func printPhases(stdout io.Writer, rep obs.Report) {
	fmt.Fprintf(stdout, "%-12s %5s %7s %10s %8s %8s %10s\n",
		"phase", "runs", "rounds", "messages", "maxLink", "maxNode", "wall")
	var total congest.Stats
	for _, p := range rep.Phases {
		total.Add(p.Stats)
		fmt.Fprintf(stdout, "%-12s %5d %7d %10d %8d %8d %10s\n",
			p.Phase, p.Runs, p.Stats.Rounds, p.Stats.Messages,
			p.Stats.MaxLinkCongestion, p.Stats.MaxNodeSends, p.Wall.Round(10e3).String())
	}
	fmt.Fprintf(stdout, "%-12s %5d %7d %10d %8d %8d\n",
		"total", rep.Runs, total.Rounds, total.Messages,
		total.MaxLinkCongestion, total.MaxNodeSends)
}

// parseCrashes decodes the -crash flag: comma-separated "v@r" (node v
// crashes at round r, unrecoverable) or "v@r+k" (restart allowed at round
// r+k) terms.
func parseCrashes(arg string) ([]faults.Event, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	var out []faults.Event
	for _, term := range strings.Split(arg, ",") {
		term = strings.TrimSpace(term)
		node, rest, ok := strings.Cut(term, "@")
		if !ok {
			return nil, fmt.Errorf("bad -crash term %q (want v@r or v@r+k)", term)
		}
		round, offset := rest, ""
		if at := strings.IndexByte(rest, '+'); at >= 0 {
			round, offset = rest[:at], rest[at+1:]
		}
		v, err1 := strconv.Atoi(node)
		r, err2 := strconv.Atoi(round)
		k := 0
		var err3 error
		if offset != "" {
			k, err3 = strconv.Atoi(offset)
		}
		if err1 != nil || err2 != nil || err3 != nil || v < 0 || r < 1 || k < 0 {
			return nil, fmt.Errorf("bad -crash term %q (want v@r or v@r+k, r ≥ 1, k ≥ 0)", term)
		}
		out = append(out, faults.Event{Round: r, From: v, Kind: faults.CrashEvent, Arg: k})
	}
	return out, nil
}

// reportCheckpoint prints the partial cost carried by the latest snapshot
// and where it was persisted, for runs that ended at a checkpoint (the
// -checkpoint-stop drill or a SIGINT/SIGTERM).
func reportCheckpoint(stdout io.Writer, logger *slog.Logger, keeper *checkpoint.Keeper, path, what string) {
	if keeper == nil {
		logger.Warn(what, "saved", false, "reason", "no checkpoint policy")
		return
	}
	snap, _ := keeper.Latest()
	if snap == nil {
		logger.Warn(what, "saved", false, "reason", "ended before the first snapshot")
		return
	}
	fmt.Fprintf(stdout, "%s at run %d round %d: partial rounds=%d messages=%d maxCongestion=%d\n",
		what, snap.RunIdx, snap.Round, snap.Stats.Rounds, snap.Stats.Messages, snap.Stats.MaxLinkCongestion)
	if path != "" {
		fmt.Fprintf(stdout, "checkpoint: %s (resume with -resume %s)\n", path, path)
	}
}
