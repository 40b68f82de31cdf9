package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/congest"
)

// TestRunFlags: the shared flags keep each binary's -n/-m defaults,
// derive the -alg list from the family table, and resolve into a graph
// plus a run description; the fault plan stays text for faults.Open.
func TestRunFlags(t *testing.T) {
	parse := func(exactOnly bool, args ...string) (*RunFlags, *flag.FlagSet) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		rf := &RunFlags{N: 12, M: 30}
		rf.Register(fs, exactOnly)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("Parse(%v): %v", args, err)
		}
		return rf, fs
	}

	rf, fs := parse(true)
	g, spec, err := rf.Resolve()
	if err != nil || g.N() != 12 || g.M() != 30 {
		t.Fatalf("defaults: n=%d m=%d err=%v, want the binary's 12/30", g.N(), g.M(), err)
	}
	if spec.Alg != "pipeline" || spec.Backend != "congest" || len(spec.Sources) != 12 || spec.H != 0 ||
		spec.Engine.Scheduler != congest.SchedulerActive || spec.Engine.Network != nil {
		t.Fatalf("default spec: %+v", spec)
	}
	if usage := fs.Lookup("alg").Usage; strings.Contains(usage, "approx") || !strings.Contains(usage, "pipeline | blocker") {
		t.Fatalf("exact-only -alg list: %q", usage)
	}
	if _, fs := parse(false); !strings.Contains(fs.Lookup("alg").Usage, "approx") {
		t.Fatalf("full -alg list misses approx: %q", fs.Lookup("alg").Usage)
	}

	rf, _ = parse(false, "-grid", "3x4", "-alg", "bellman", "-backend", "parallel", "-sources", "0,5", "-h", "6",
		"-workers", "3", "-faults", "drop=0.2", "-fault-seed", "7")
	g, spec, err = rf.Resolve()
	if err != nil || g.N() != 12 {
		t.Fatalf("grid: n=%d err=%v", g.N(), err)
	}
	if spec.Alg != "bellman" || spec.Backend != "parallel" || len(spec.Sources) != 2 || spec.Sources[1] != 5 || spec.H != 6 ||
		spec.Engine.Workers != 3 || spec.Engine.Scheduler != congest.SchedulerActive {
		t.Fatalf("resolved spec: %+v", spec)
	}
	if rf.Faults != "drop=0.2" || rf.FaultSeed != 7 {
		t.Fatalf("fault plan text: %q seed %d", rf.Faults, rf.FaultSeed)
	}

	for _, bad := range [][]string{{"-grid", "3xx"}, {"-sources", "0,bad"}, {"-graph", "/nonexistent/g.txt"}} {
		rf, _ := parse(false, bad...)
		if _, _, err := rf.Resolve(); err == nil {
			t.Errorf("Resolve(%v) succeeded, want error", bad)
		}
	}
}
