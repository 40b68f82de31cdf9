package main

import (
	"bufio"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// coverSample is a merged profile of two test binaries: the graph
// package's first block is missed by one and run by the other.
const coverSample = `mode: set
repro/api.go:10.2,12.3 3 1
repro/api.go:14.2,15.3 1 0
repro/internal/graph/graph.go:20.2,22.3 4 0
repro/internal/graph/graph.go:24.2,25.3 6 1
repro/internal/graph/graph.go:30.2,31.3 2 0
repro/cmd/graphgen/main.go:5.2,9.3 5 0
repro/cmd/graphgen/main.go:11.2,12.3 5 0
repro/api.go:10.2,12.3 3 0
repro/api.go:14.2,15.3 1 0
repro/internal/graph/graph.go:20.2,22.3 4 1
repro/internal/graph/graph.go:24.2,25.3 6 0
repro/internal/graph/graph.go:30.2,31.3 2 0
repro/cmd/graphgen/main.go:5.2,9.3 5 1
repro/cmd/graphgen/main.go:11.2,12.3 5 0
`

func TestParseCover(t *testing.T) {
	for _, c := range []struct {
		name, profile string
		want          map[string]float64
		bad           bool
	}{
		{"merged binaries", coverSample, map[string]float64{"repro": 75, "repro/internal/graph": 83.3, "repro/cmd/graphgen": 50}, false},
		{"count mode", "mode: count\nrepro/x/a.go:1.1,2.2 2 7\nrepro/x/a.go:3.1,4.2 1 0\n", map[string]float64{"repro/x": 66.7}, false},
		{"block counted once", "mode: set\nrepro/x/a.go:1.1,2.2 2 1\nrepro/x/a.go:1.1,2.2 2 1\nrepro/x/a.go:3.1,4.2 2 0\n", map[string]float64{"repro/x": 50}, false},
		{"no statements", "mode: set\nrepro/x/a.go:1.1,2.2 0 0\n", map[string]float64{}, false},
		{"mode only", "mode: atomic\n", map[string]float64{}, false},
		{"short line", "mode: set\nrepro/x/a.go:1.1,2.2 2\n", nil, true},
		{"bad count", "mode: set\nrepro/x/a.go:1.1,2.2 2 x\n", nil, true},
		{"no position", "mode: set\nrepro/x/a.go 2 1\n", nil, true},
	} {
		res, err := parseCover(bufio.NewScanner(strings.NewReader(c.profile)))
		if (err != nil) != c.bad {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.bad)
			continue
		}
		if !c.bad && !maps.Equal(res, c.want) {
			t.Errorf("%s: parsed %v, want %v", c.name, res, c.want)
		}
	}
}

// gateRun drives run() with an in-memory stdin and a temp baseline.
func gateRun(t *testing.T, stdin, baselinePath string, extra ...string) (int, string) {
	t.Helper()
	args := append([]string{"-baseline", baselinePath}, extra...)
	var out strings.Builder
	code := run(strings.NewReader(stdin), &out, io.Discard, args)
	return code, out.String()
}

func TestUpdateThenPass(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "COVERAGE.json")
	code, out := gateRun(t, coverSample, baseline, "-update", "-margin", "2.0")
	if code != 0 {
		t.Fatalf("-update exit %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "\"repro/internal/graph\": 81.3") {
		t.Fatalf("floor not measured−margin:\n%s", raw)
	}
	// The run that produced the baseline must pass its own gate.
	code, out = gateRun(t, coverSample, baseline)
	if code != 0 {
		t.Fatalf("self-comparison exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "ok   repro/internal/graph: 83.3% (floor 81.3%)") {
		t.Fatalf("ok line missing:\n%s", out)
	}
}

func TestRegressionFails(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "COVERAGE.json")
	if code, _ := gateRun(t, coverSample, baseline, "-update"); code != 0 {
		t.Fatal("update failed")
	}
	dropped := strings.Replace(coverSample, "graph.go:20.2,22.3 4 1", "graph.go:20.2,22.3 4 0", 1)
	code, out := gateRun(t, dropped, baseline)
	if code != 1 {
		t.Fatalf("regression exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL repro/internal/graph: 50.0% < floor 81.3%") {
		t.Fatalf("FAIL line missing:\n%s", out)
	}
}

func TestMissingPackageFails(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "COVERAGE.json")
	if code, _ := gateRun(t, coverSample, baseline, "-update"); code != 0 {
		t.Fatal("update failed")
	}
	var kept []string
	for _, l := range strings.Split(coverSample, "\n") {
		if !strings.Contains(l, "repro/internal/graph") {
			kept = append(kept, l)
		}
	}
	code, out := gateRun(t, strings.Join(kept, "\n"), baseline)
	if code != 1 {
		t.Fatalf("missing package exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL repro/internal/graph: in baseline") {
		t.Fatalf("missing-package FAIL line absent:\n%s", out)
	}
}

func TestNewPackageReportsWithoutFailing(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "COVERAGE.json")
	if code, _ := gateRun(t, coverSample, baseline, "-update"); code != 0 {
		t.Fatal("update failed")
	}
	grown := coverSample + "repro/internal/fresh/f.go:1.1,2.2 2 1\nrepro/internal/fresh/f.go:3.1,4.2 2 0\n"
	code, out := gateRun(t, grown, baseline)
	if code != 0 {
		t.Fatalf("new package should not fail the gate, exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "new  repro/internal/fresh: 50.0% not in baseline") {
		t.Fatalf("new-package line missing:\n%s", out)
	}
}

func TestUsageAndParseErrors(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "COVERAGE.json")
	if code, _ := gateRun(t, coverSample, baseline, "-bogus"); code != 2 {
		t.Error("bad flag not exit 2")
	}
	if code, _ := gateRun(t, coverSample, baseline, "stray"); code != 2 {
		t.Error("stray arg not exit 2")
	}
	if code, _ := gateRun(t, "", baseline); code != 2 {
		t.Error("empty stdin not exit 2")
	}
	if code, _ := gateRun(t, coverSample, filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Error("missing baseline not exit 2")
	}
	if code, _ := gateRun(t, "mode: set\nrepro/a.go:1.1,2.2 1 nope\n", baseline); code != 2 {
		t.Error("bad count not exit 2")
	}
}
