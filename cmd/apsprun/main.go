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
//	apsprun -alg pipeline -n 256 -m 1024 -workers 4
//	apsprun -alg blocker -n 48 -m 160 -faults all -fault-seed 7 -check
//	apsprun -backend parallel -n 1024 -m 8192 -quiet
//
// -backend selects the compute substrate: "congest" (default) simulates
// the message-passing engine round by round; "parallel" runs the
// shared-memory backend of internal/compute (work-stealing per-source
// Dijkstra over packed (dist, hops) keys) for the same exact distances at
// production sizes. The parallel backend has no rounds, faults, or
// checkpoints; flags that configure those are rejected rather than
// ignored.
//
// -workers sets the per-round goroutine count; it leaves results and
// CONGEST costs bit-identical.
//
// -faults runs the engine over an adversarial physical network (see
// internal/faults): "all" for the standard chaos plan, or a custom plan
// like "delay=4,drop=0.2,dup=0.1,seed=7". The reliability shim keeps
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
	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/congest"
	"repro/internal/family"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
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
		ckptPath  = fs.String("checkpoint", "", "write engine checkpoints to this file (atomic; SIGINT/SIGTERM write a final one)")
		ckptEvery = fs.Int("checkpoint-every", 0, "snapshot every N rounds (0 = only on signal)")
		ckptStop  = fs.Int("checkpoint-stop", 0, "snapshot at exactly this round of the first engine run, then stop")
		resumeArg = fs.String("resume", "", "resume from a checkpoint file written by -checkpoint")
		crashArg  = fs.String("crash", "", `scripted crash-stop faults: "v@r" (node v crashes at round r, unrecoverable) or "v@r+k" (restart allowed k rounds later), comma-separated`)
		restarts  = fs.Int("restarts", 3, "restart budget for recoverable crashes")
		logFmt    = fs.String("log", "text", "status log format on stderr: text | json | off")
		logLevel  = fs.String("log-level", "info", "status log level: debug | info | warn | error")
	)
	rf := cli.RunFlags{N: 32, M: 96}
	rf.Register(fs, false)
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

	g, spec, err := rf.Resolve()
	if err != nil {
		return err
	}
	spec.Eps = *eps
	sources := spec.Sources

	// Observability: attach a Recorder only when asked for, so the
	// engine's nil-observer fast path stays in effect otherwise. The
	// parallel backend has no rounds to observe: family.Run refuses what
	// the Spec carries, the sinks are refused here before any is created.
	wantRec := *tracePath != "" || *metrics != "" || *statsJSON != "" || *jsonOut || *phases
	if spec.Backend == "parallel" && (wantRec || *timeline) {
		return fmt.Errorf("-trace, -metrics, -stats-json, -json, -phases and -timeline need the congest backend (the parallel backend has no simulated rounds to observe)")
	}
	var rec *obs.Recorder
	chrome := ""
	if wantRec {
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
	if rec != nil {
		spec.Engine.Observer = rec
	}
	if *timeline {
		spec.Engine.Observer = congest.Tee(spec.Engine.Observer, tl.Observer())
	}
	if *listTrace {
		spec.ListTrace = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	// Adversarial delivery: a non-empty -faults plan swaps the engine's
	// perfect delivery for the faults.Network reliability shim.
	fnet, err := faults.Open(rf.Faults, rf.FaultSeed)
	if err != nil {
		return err
	}

	// Scripted crash-stop faults ride on the faults.Network; injecting
	// crashes without a -faults plan engages the shim with a perfect wire.
	crashes, err := parseCrashes(*crashArg)
	if err != nil {
		return err
	}
	if len(crashes) > 0 {
		if fnet == nil {
			fnet = faults.New(faults.Plan{Seed: rf.FaultSeed})
		}
		fnet.Script = append(fnet.Script, crashes...)
	}
	if fnet != nil {
		if rec != nil {
			fnet.Sink = rec
		}
		spec.Engine.Network = fnet
	}

	// Checkpoint policy: a Keeper retains the latest snapshot in memory
	// (the supervisor's restart point) and persists each one to -checkpoint
	// when set. With Every == 0 the only snapshots are the final one a
	// signal triggers and the -checkpoint-stop drill.
	var (
		keeper *checkpoint.Keeper
		pol    *congest.CheckpointPolicy
	)
	if *ckptPath != "" || *ckptEvery > 0 || *ckptStop > 0 || *resumeArg != "" {
		meta := &checkpoint.Meta{
			Alg: spec.Alg, N: g.N(), M: g.M(), Graph: checkpoint.Fingerprint(g),
			Sources: sources, H: spec.H, Plan: fnet.PlanString(),
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
		pol = &congest.CheckpointPolicy{Every: *ckptEvery, AtRound: *ckptStop, Sink: keeper.Sink}
		spec.Engine.Checkpoint = pol
	}
	if *resumeArg != "" {
		loadStart := time.Now()
		meta, snap, err := family.LoadCheckpoint(*resumeArg, g, &spec)
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

	spec.Engine.Ctx = ctx
	// runAlg executes one full attempt of the run description. The
	// supervisor re-invokes it after a recoverable crash: the policy's
	// resume point then replays the computation up to the latest snapshot.
	var (
		res  family.Result
		wall time.Duration
	)
	runAlg := func() (err error) {
		start := time.Now()
		res, err = family.Run(g, spec)
		wall = time.Since(start)
		return err
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
	if *timeline && spec.Alg == "pipeline" {
		fmt.Fprintf(stdout, "activity (peak %d msgs/round): %s\n", tl.Peak(), tl.Sparkline(72))
	}
	if res.Approx != nil {
		if *check {
			stretch, mism := approx.CheckStretch(g, res.Approx)
			logger.Info("check", "maxStretch", fmt.Sprintf("%.4f", stretch),
				"claim", fmt.Sprintf("≤ %.2f", 1+*eps), "mismatches", mism)
		}
		if !*quiet && !*jsonOut {
			for i := range sources {
				for v := 0; v < g.N(); v++ {
					fmt.Fprintf(stdout, "approx(%d,%d) = %.3f\n", sources[i], v, res.Approx.Value(i, v))
				}
			}
		}
	} else {
		if *check {
			wrong := 0
			oracle := "Dijkstra"
			for i, s := range sources {
				var want []int64
				if res.HopBound > 0 {
					want = graph.HHopDistances(g, s, res.HopBound)
					oracle = fmt.Sprintf("%d-hop DP", res.HopBound)
				} else {
					want = graph.Dijkstra(g, s)
				}
				for v, d := range res.Dist[i*res.N : (i+1)*res.N] {
					if d != want[v] {
						wrong++
					}
				}
			}
			logger.Info("check", "oracle", oracle, "wrong", wrong, "of", len(sources)*g.N())
		}
		if !*quiet && !*jsonOut {
			for i, s := range sources {
				for v, dist := range res.Dist[i*res.N : (i+1)*res.N] {
					d := "inf"
					if dist < graph.Inf {
						d = strconv.FormatInt(dist, 10)
					}
					fmt.Fprintf(stdout, "d(%d,%d) = %s\n", s, v, d)
				}
			}
		}
	}
	// The cost summary: rounds for the engine, the chosen kernel for the
	// parallel backend. Distances above print in one format on both, so
	// outputs diff cleanly across backends.
	summary := fmt.Sprintf("rounds=%d messages=%d maxCongestion=%d %s",
		res.Stats.Rounds, res.Stats.Messages, res.Stats.MaxLinkCongestion, res.Detail)
	if spec.Backend == "parallel" {
		summary = fmt.Sprintf("%s wall=%s", res.Detail, wall.Round(time.Microsecond))
	}
	if !*jsonOut {
		fmt.Fprintln(stdout, summary)
		if fnet != nil {
			p := fnet.Phys()
			fmt.Fprintf(stdout, "phys: plan=%s sends=%d retransmits=%d dataDrops=%d ackDrops=%d dupDeliveries=%d subRounds=%d\n",
				fnet.Plan, p.DataSends, p.Retransmits, p.DataDrops, p.AckDrops, p.DupDeliveries, p.SubRounds)
		}
	}
	if rec == nil {
		return nil
	}
	// The optional per-phase table and JSON report, then flush the sinks.
	rep := rec.ReportOf(spec.Alg, g.N(), g.M(), len(sources))
	if *phases {
		printPhases(stdout, rep)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if *statsJSON != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*statsJSON, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := rec.Close(); err != nil {
		return err
	}
	if *tracePath != "" {
		logger.Info("trace written", "jsonl", *tracePath, "chrome", chrome)
	}
	if *metrics != "" {
		logger.Info("metrics written", "path", *metrics)
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
