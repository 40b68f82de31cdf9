package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/faults"
	"repro/internal/obs"
)

func TestParseCrashes(t *testing.T) {
	got, err := parseCrashes(" 3@10+2 , 1@4 ")
	if err != nil {
		t.Fatalf("parseCrashes: %v", err)
	}
	want := []faults.Event{
		{Round: 10, From: 3, Kind: faults.CrashEvent, Arg: 2},
		{Round: 4, From: 1, Kind: faults.CrashEvent},
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
	if evs, err := parseCrashes(""); err != nil || evs != nil {
		t.Fatalf("empty arg: %v %v", evs, err)
	}
	for _, bad := range []string{"3", "@4", "3@", "3@0", "-1@4", "3@4+-1", "3@4+x", "a@b"} {
		if _, err := parseCrashes(bad); err == nil {
			t.Fatalf("bad -crash term %q accepted", bad)
		}
	}
}

func TestParseSources(t *testing.T) {
	got, err := cli.ParseSources("0, 3,7", 10)
	if err != nil {
		t.Fatalf("parseSources: %v", err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("got %v", got)
	}
	all, err := cli.ParseSources("", 4)
	if err != nil || len(all) != 4 || all[3] != 3 {
		t.Fatalf("empty arg: %v %v", all, err)
	}
	if _, err := cli.ParseSources("x", 4); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestLoadGraphGenerated(t *testing.T) {
	g, err := cli.LoadGraph("", "", 12, 36, 5, 0.2, 3)
	if err != nil {
		t.Fatalf("loadGraph: %v", err)
	}
	if g.N() != 12 || g.M() != 36 {
		t.Fatalf("generated n=%d m=%d", g.N(), g.M())
	}
}

func TestLoadGraphGrid(t *testing.T) {
	g, err := cli.LoadGraph("", "3x4", 0, 0, 5, 0, 1)
	if err != nil {
		t.Fatalf("loadGraph: %v", err)
	}
	if g.N() != 12 {
		t.Fatalf("grid n=%d, want 12", g.N())
	}
	for _, bad := range []string{"3", "x4", "3x", "0x4", "axb"} {
		if _, err := cli.LoadGraph("", bad, 0, 0, 5, 0, 1); err == nil {
			t.Fatalf("bad grid spec %q accepted", bad)
		}
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("n 2 directed\ne 0 1 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := cli.LoadGraph(path, "", 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatalf("loadGraph: %v", err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("loaded n=%d m=%d", g.N(), g.M())
	}
	if _, err := cli.LoadGraph(filepath.Join(dir, "missing.txt"), "", 0, 0, 0, 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRunBackendParity: the parallel backend must print exactly the same
// distance lines as the congest engine on the same instance — byte
// identity of the d(src,v) block is the contract that lets scripts swap
// -backend freely.
func TestRunBackendParity(t *testing.T) {
	base := []string{"-n", "24", "-m", "80", "-zero", "0.25", "-seed", "9", "-log", "off"}
	var congestOut, parallelOut bytes.Buffer
	if err := run(append([]string{"-backend", "congest"}, base...), &congestOut, io.Discard); err != nil {
		t.Fatalf("congest backend: %v", err)
	}
	if err := run(append([]string{"-backend", "parallel"}, base...), &parallelOut, io.Discard); err != nil {
		t.Fatalf("parallel backend: %v", err)
	}
	distLines := func(out string) []string {
		var ds []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "d(") {
				ds = append(ds, l)
			}
		}
		return ds
	}
	c, p := distLines(congestOut.String()), distLines(parallelOut.String())
	if len(c) != 24*24 || len(p) != len(c) {
		t.Fatalf("distance line counts: congest %d, parallel %d, want %d", len(c), len(p), 24*24)
	}
	for i := range c {
		if c[i] != p[i] {
			t.Fatalf("line %d diverges: congest %q, parallel %q", i, c[i], p[i])
		}
	}
	if !strings.Contains(parallelOut.String(), "kernel=") {
		t.Fatalf("parallel summary missing kernel: %s", parallelOut.String())
	}
	if !strings.Contains(congestOut.String(), "rounds=") {
		t.Fatalf("congest summary missing rounds: %s", congestOut.String())
	}
}

// TestRunParallelCheckAndSources: -check and -sources work on the
// parallel backend, and the check line reports zero mismatches.
func TestRunParallelCheckAndSources(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-backend", "parallel", "-n", "20", "-m", "60", "-seed", "4",
		"-sources", "0,7,13", "-check", "-log", "text"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	lines := strings.Count(out.String(), "d(")
	if lines != 3*20 {
		t.Fatalf("got %d distance lines, want %d", lines, 3*20)
	}
	if !strings.Contains(errOut.String(), "wrong=0") {
		t.Fatalf("check line missing or nonzero mismatches:\n%s", errOut.String())
	}
}

// TestRunFlagMatrix: every engine algorithm runs through the extracted
// run() body and prints the shared summary line.
func TestRunFlagMatrix(t *testing.T) {
	for _, alg := range []string{"pipeline", "blocker", "scaling", "shortrange", "bellman"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			var out bytes.Buffer
			args := []string{"-alg", alg, "-n", "16", "-m", "48", "-seed", "2", "-quiet", "-log", "off", "-check"}
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
			if !strings.Contains(out.String(), "rounds=") {
				t.Fatalf("summary line missing:\n%s", out.String())
			}
		})
	}
	// approx prints stretch values instead of exact distances.
	var out bytes.Buffer
	if err := run([]string{"-alg", "approx", "-eps", "0.5", "-n", "16", "-m", "48", "-quiet", "-log", "off"}, &out, io.Discard); err != nil {
		t.Fatalf("approx: %v", err)
	}
	if !strings.Contains(out.String(), "scales=") {
		t.Fatalf("approx summary missing scales:\n%s", out.String())
	}
}

// TestRunFlagErrors: invalid flag combinations fail with an error instead
// of silently dropping semantics — in particular every engine-only flag
// is rejected on the parallel backend.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"stray"},
		{"-alg", "escher"},
		{"-sched", "dense"}, // the dense engine is a test reference, not a flag
		{"-log", "yaml"},
		{"-log-level", "loud"},
		{"-backend", "gpu"},
		{"-backend", "parallel", "-alg", "blocker"},
		{"-backend", "parallel", "-h", "3"},
		{"-backend", "parallel", "-faults", "delay=2"},
		{"-backend", "parallel", "-crash", "3@5"},
		{"-backend", "parallel", "-checkpoint", "x.ckpt"},
		{"-backend", "parallel", "-resume", "x.ckpt"},
		{"-backend", "parallel", "-timeline"},
		{"-backend", "parallel", "-json"},
		{"-sources", "0,bad"},
		{"-grid", "3xx"},
		{"-crash", "nope"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// The parallel rejections name the congest backend so the fix is
	// obvious from the message alone.
	err := run([]string{"-backend", "parallel", "-faults", "delay=2", "-log", "off"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "congest backend") {
		t.Fatalf("parallel+faults error = %v, want mention of the congest backend", err)
	}
}

// TestRunStatsJSONAndPhases: the observability flags flow through the
// extracted run() — a stats JSON file lands on disk and the phase table
// prints on stdout.
func TestRunStatsJSONAndPhases(t *testing.T) {
	dir := t.TempDir()
	statsPath := filepath.Join(dir, "stats.json")
	var out bytes.Buffer
	args := []string{"-alg", "blocker", "-n", "16", "-m", "48", "-seed", "3", "-quiet",
		"-phases", "-stats-json", statsPath, "-log", "off"}
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(out.String(), "phase") || !strings.Contains(out.String(), "total") {
		t.Fatalf("phase table missing:\n%s", out.String())
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("stats json not written: %v", err)
	}
	if !strings.Contains(string(raw), "\"alg\"") && !strings.Contains(string(raw), "\"Alg\"") {
		t.Fatalf("stats json content unexpected: %s", raw)
	}
}

// TestRunCheckpointStopResume drives the kill-and-resume drill through the
// CLI on the scaling family (whose snapshot is core.List's): a run stopped
// at a barrier and resumed prints the same summary as a straight run, a
// checkpoint file with a flipped bit is refused by its checksum, and one
// headed as the unsealed version 1 of older builds is refused by name.
func TestRunCheckpointStopResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	base := []string{"-alg", "scaling", "-n", "30", "-m", "100", "-seed", "4", "-quiet", "-log", "off"}
	var straight, stopped, resumed bytes.Buffer
	if err := run(base, &straight, io.Discard); err != nil {
		t.Fatalf("straight run: %v", err)
	}
	if err := run(append([]string{"-checkpoint", ckpt, "-checkpoint-stop", "20"}, base...), &stopped, io.Discard); err != nil {
		t.Fatalf("checkpoint-stop run: %v", err)
	}
	if !strings.Contains(stopped.String(), "stopped at checkpoint at run 0 round 20") ||
		!strings.Contains(stopped.String(), "resume with -resume "+ckpt) {
		t.Fatalf("stop report: %s", stopped.String())
	}
	if err := run(append([]string{"-resume", ckpt, "-check"}, base...), &resumed, io.Discard); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.String() != straight.String() {
		t.Fatalf("resumed run printed\n%s\nstraight run printed\n%s", resumed.String(), straight.String())
	}
	if err := run(append([]string{"-resume", ckpt, "-alg", "pipeline"}, base[2:]...), io.Discard, io.Discard); err == nil {
		t.Fatal("resume under a different -alg accepted")
	}

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		edit       func([]byte)
	}{
		// The snapshot's last byte, just before the checksum.
		{"checksum", "checksum", func(b []byte) { b[len(b)-9] ^= 0x04 }},
		// The container version word, set to the unsealed layout of older builds.
		{"version 1", "unsupported version 1", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1) }},
	} {
		bad := append([]byte(nil), raw...)
		c.edit(bad)
		if err := os.WriteFile(ckpt, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-resume", ckpt}, base...), io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("resuming a checkpoint with a %s edit: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestRunMetricsMatchReportAfterRestart: a run that crashed and restarted
// from a checkpoint re-executes rounds, and the -metrics dump must not
// count them twice — its run, round and message counters are the ones
// -stats-json reports.
func TestRunMetricsMatchReportAfterRestart(t *testing.T) {
	dir := t.TempDir()
	prom, stats := filepath.Join(dir, "m.prom"), filepath.Join(dir, "s.json")
	args := []string{"-alg", "pipeline", "-n", "48", "-m", "160", "-quiet", "-log", "off",
		"-crash", "3@10+1", "-checkpoint-every", "8", "-metrics", prom, "-stats-json", stats}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	var rep obs.Report
	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	dump, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 1 || rep.Runs != 1 {
		t.Fatalf("report has %d phases, %d runs; want the one engine run of -alg pipeline", len(rep.Phases), rep.Runs)
	}
	main := rep.Phases[0]
	for _, want := range []string{
		fmt.Sprintf("congest_runs_total %d\n", rep.Runs),
		fmt.Sprintf("congest_phase_rounds_total{phase=\"main\"} %d\n", main.RoundsExecuted),
		fmt.Sprintf("congest_phase_messages_total{phase=\"main\"} %d\n", main.Stats.Messages),
	} {
		if !strings.Contains(string(dump), want) {
			t.Errorf("metrics dump lacks %q (report: %d runs, %d rounds executed, %d messages)\n%s",
				want, rep.Runs, main.RoundsExecuted, main.Stats.Messages, dump)
		}
	}
	// The restart did happen: the histogram, which counts executed rounds,
	// saw the re-executed ones too.
	var executed int
	if _, tail, ok := strings.Cut(string(dump), "congest_round_messages_count "); ok {
		fmt.Sscan(tail, &executed)
	}
	if executed <= main.RoundsExecuted {
		t.Errorf("histogram counted %d rounds, report %d: no round was re-executed, the drill tested nothing", executed, main.RoundsExecuted)
	}
}

// TestRunCrashKeepsFaultPlan: -crash adds crash events to the fault
// network's script, and a script of crashes alone must leave the -faults
// plan in force. The supervised run still drops, delays and retransmits,
// and still passes -check.
func TestRunCrashKeepsFaultPlan(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-alg", "pipeline", "-n", "48", "-m", "160", "-faults", "all", "-json", "-check",
		"-log", "text", "-crash", "3@10+1", "-checkpoint-every", "8"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	var rep obs.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.Phys == nil || rep.Phys.Retransmits == 0 || rep.Phys.DataDrops == 0 {
		t.Fatalf("phys = %+v: the crash script switched the fault plan off", rep.Phys)
	}
	for _, want := range []string{"recovered via checkpoint restart", "wrong=0"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut.String())
		}
	}
}
