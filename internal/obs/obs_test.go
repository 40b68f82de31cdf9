package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/obs"
)

// TestPhaseSumsEqualAggregate is the subsystem's core invariant: a
// multi-phase BlockerAPSP run on a 64-node graph yields a per-phase
// breakdown that sums EXACTLY to the algorithm's own aggregate Stats — no
// event dropped, none double-counted.
func TestPhaseSumsEqualAggregate(t *testing.T) {
	g := graph.Random(64, 300, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.2, Directed: true})
	rec := obs.NewRecorder()
	res, err := hssp.Run(g, hssp.Opts{H: 4, Engine: congest.Config{Observer: rec}})
	if err != nil {
		t.Fatal(err)
	}

	phases := rec.Breakdown()
	if len(phases) != 4 {
		t.Fatalf("got %d phases, want 4 (cssp/blocker/sssp/broadcast): %+v", len(phases), phases)
	}
	wantOrder := []string{"cssp", "blocker", "sssp", "broadcast"}
	var sum congest.Stats
	for i, p := range phases {
		if p.Phase != wantOrder[i] {
			t.Errorf("phase[%d] = %q, want %q", i, p.Phase, wantOrder[i])
		}
		if p.Runs == 0 {
			t.Errorf("phase %q has zero runs", p.Phase)
		}
		if p.Stats.Rounds != res.PhaseRounds[p.Phase] {
			t.Errorf("phase %q rounds = %d, algorithm reports %d", p.Phase, p.Stats.Rounds, res.PhaseRounds[p.Phase])
		}
		sum.Add(p.Stats)
	}
	if sum != res.Stats {
		t.Errorf("phase sum %+v != aggregate %+v", sum, res.Stats)
	}
	if rec.Total() != res.Stats {
		t.Errorf("recorder total %+v != aggregate %+v", rec.Total(), res.Stats)
	}
	if rec.Runs() == 0 {
		t.Error("recorder saw zero engine runs")
	}
}

// TestReportOf checks the serializable summary carries the breakdown.
func TestReportOf(t *testing.T) {
	g := graph.Grid(4, 4, graph.GenOpts{Seed: 1, MaxW: 3})
	rec := obs.NewRecorder()
	res, err := hssp.Run(g, hssp.Opts{H: 2, Engine: congest.Config{Observer: rec}})
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.ReportOf("blocker", g.N(), g.M(), g.N())
	if rep.Total != res.Stats {
		t.Errorf("report total %+v != aggregate %+v", rep.Total, res.Stats)
	}
	if len(rep.Phases) == 0 {
		t.Error("report has no phases")
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Total != rep.Total {
		t.Errorf("round-trip total %+v != %+v", back.Total, rep.Total)
	}
}

func runWithSinks(t *testing.T, sinks ...obs.Sink) *obs.Recorder {
	t.Helper()
	g := graph.Random(24, 90, graph.GenOpts{Seed: 3, MaxW: 5, Directed: true})
	rec := obs.NewRecorder(sinks...)
	if _, err := hssp.Run(g, hssp.Opts{H: 3, Engine: congest.Config{Observer: rec}}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	return rec
}

// TestJSONLSink checks every emitted line is a valid Event and the stream
// covers all event kinds with phase attribution throughout.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	runWithSinks(t, obs.NewJSONL(&buf))

	valid := map[string]bool{
		"phase": true, "run_start": true, "round": true,
		"node_sends": true, "link_peak": true, "run_done": true,
	}
	seen := map[string]int{}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short trace: %d lines", len(lines))
	}
	for i, ln := range lines {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i+1, err, ln)
		}
		if !valid[e.Kind] {
			t.Fatalf("line %d: unknown kind %q", i+1, e.Kind)
		}
		if e.Phase == "" {
			t.Fatalf("line %d: missing phase attribution: %s", i+1, ln)
		}
		seen[e.Kind]++
	}
	for k := range valid {
		if seen[k] == 0 {
			t.Errorf("no %q events in trace", k)
		}
	}
}

// TestChromeSink checks the exported file is valid trace_event JSON with
// per-phase thread tracks, round slices, and hot-node counters.
func TestChromeSink(t *testing.T) {
	var buf bytes.Buffer
	runWithSinks(t, obs.NewChrome(&buf))

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	phases := map[string]bool{}
	var slices, counters int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				args := ev["args"].(map[string]any)
				phases[args["name"].(string)] = true
			}
		case "X":
			slices++
			if ev["dur"].(float64) < 1 {
				t.Fatalf("slice with zero duration: %v", ev)
			}
		case "C":
			counters++
		}
	}
	for _, want := range []string{"phase:cssp", "phase:blocker", "phase:sssp", "phase:broadcast"} {
		if !phases[want] {
			t.Errorf("missing thread track %q (have %v)", want, phases)
		}
	}
	if slices == 0 {
		t.Error("no round slices")
	}
	if counters == 0 {
		t.Error("no hot-node counter events")
	}
}

// TestMetricsSink checks the Prometheus text dump has the expected series
// and internally consistent histogram counts.
func TestMetricsSink(t *testing.T) {
	var buf bytes.Buffer
	rec := runWithSinks(t, obs.NewMetrics(&buf))

	text := buf.String()
	for _, name := range []string{
		"congest_runs_total",
		"congest_phase_rounds_total{phase=\"cssp\"}",
		"congest_phase_messages_total{phase=\"sssp\"}",
		"congest_phase_max_link_congestion{phase=\"blocker\"}",
		"congest_phase_max_node_sends{phase=\"broadcast\"}",
		"congest_round_messages_bucket{le=\"+Inf\"}",
		"congest_round_messages_sum",
		"congest_round_messages_count",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics dump missing %q", name)
		}
	}
	// The histogram's _sum must equal the recorder's total message count:
	// both are the sum of per-round Sent values.
	var msgSum int64 = -1
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, "congest_round_messages_sum ") {
			if _, err := fmtSscan(ln, &msgSum); err != nil {
				t.Fatalf("bad sum line %q: %v", ln, err)
			}
		}
	}
	if msgSum != int64(rec.Total().Messages) {
		t.Errorf("histogram sum %d != total messages %d", msgSum, rec.Total().Messages)
	}
}

func fmtSscan(line string, out *int64) (int, error) {
	fields := strings.Fields(line)
	return 1, json.Unmarshal([]byte(fields[len(fields)-1]), out)
}

// TestTeeForwardsPhase checks congest.Tee keeps phase attribution intact
// when a Recorder is combined with a plain observer.
func TestTeeForwardsPhase(t *testing.T) {
	g := graph.Grid(3, 3, graph.GenOpts{Seed: 2, MaxW: 2})
	rec := obs.NewRecorder()
	var rounds int
	tee := congest.Tee(rec, roundCounter{&rounds})
	if _, err := hssp.Run(g, hssp.Opts{H: 2, Engine: congest.Config{Observer: tee}}); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Error("plain observer behind Tee saw no rounds")
	}
	if len(rec.Breakdown()) != 4 {
		t.Errorf("recorder behind Tee got %d phases, want 4", len(rec.Breakdown()))
	}
}

type roundCounter struct{ n *int }

func (r roundCounter) RunStart(int)                 {}
func (r roundCounter) RoundDone(congest.RoundEvent) { *r.n++ }
func (r roundCounter) NodeSends(int, int, int)      {}
func (r roundCounter) LinkPeak(int, int, int, int)  {}
func (r roundCounter) RunDone(congest.Stats)        {}
