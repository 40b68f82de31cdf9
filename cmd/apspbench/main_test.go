package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListIsDeterministicAndComplete: -list prints the sorted experiment
// registry; scripts grep it, so IDs must be stable line-oriented output.
func TestListIsDeterministicAndComplete(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-list"}, &a, io.Discard); err != nil {
		t.Fatalf("-list: %v", err)
	}
	if err := run([]string{"-list"}, &b, io.Discard); err != nil {
		t.Fatalf("-list second pass: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("-list output not deterministic")
	}
	ids := strings.Fields(a.String())
	if len(ids) < 10 {
		t.Fatalf("suspiciously few experiments listed: %v", ids)
	}
	for _, want := range []string{"E-BIG", "SCORECARD"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("-list missing %s:\n%s", want, a.String())
		}
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("-list not sorted: %s before %s", ids[i-1], ids[i])
		}
	}
}

// TestSingleExperimentRunsAndPersists: one small experiment runs through
// the extracted run() body, prints its table, and leaves both pprof
// profiles on disk with their paths noted on stderr.
func TestSingleExperimentRunsAndPersists(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	args := []string{"-exp", "E-BIG", "-small", "-seed", "3", "-cpuprofile", cpuPath, "-memprofile", memPath}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(out.String(), "E-BIG") || !strings.Contains(out.String(), "rounds/n") {
		t.Fatalf("table output unexpected:\n%s", out.String())
	}
	for _, path := range []string{cpuPath, memPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s not written (%v)", path, err)
		}
		if !strings.Contains(errOut.String(), path) {
			t.Fatalf("profile path %s missing on stderr:\n%s", path, errOut.String())
		}
	}
	// Markdown mode renders the same table with pipe separators.
	var mdOut bytes.Buffer
	if err := run([]string{"-exp", "E-BIG", "-small", "-md"}, &mdOut, io.Discard); err != nil {
		t.Fatalf("-md: %v", err)
	}
	if !strings.Contains(mdOut.String(), "|") {
		t.Fatalf("markdown output has no table:\n%s", mdOut.String())
	}
}

// TestFlagErrors: bad flags, unknown experiments and stray arguments
// return errors instead of exiting the test process.
func TestFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"stray"},
		{"-exp", "E-NOPE"},
		// The wall-clock tables moved to the ledger (benchmark/README.md).
		{"-exp", "E-SERVE"},
		{"-exp", "E-TRACE"},
		{"-exp", "E-XOVER"},
		// The fault and crash tables moved to the gated root sweeps
		// (TestFaultConformance*, TestCheckpointConformance*,
		// TestCheckpointSupervisedRestart), and the knobs that served
		// them went with them; the JSON dump is the ledger's job.
		{"-exp", "E-FAULTS"},
		{"-exp", "E-CRASH"},
		{"-faults", "all"},
		{"-fault-seed", "1"},
		{"-workers", "2"},
		{"-json", "x"},
		{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "x.pprof"), "-exp", "E-BIG", "-small"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
