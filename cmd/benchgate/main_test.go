package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineWorkers1-8 	      20	  48587183 ns/op	 3934779 B/op	   49927 allocs/op
BenchmarkEngineWorkers1-8 	      20	  46297307 ns/op	 3934772 B/op	   49928 allocs/op
BenchmarkEngineSchedulerSparseActive 	       5	   1996195 ns/op	        4242 rounds	 1689041 B/op	    9753 allocs/op
BenchmarkOracleServeDist/off-2 	      10	      9440 ns/op	    105932 queries/s	    7856 B/op	      39 allocs/op
BenchmarkNoMem 	     100	      1234 ns/op
PASS
ok  	repro	1.209s
`

func TestParseBench(t *testing.T) {
	res, err := parseBench(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]result{
		// GOMAXPROCS suffix stripped, -count collapsed to the minimum of
		// each column on its own.
		"EngineWorkers1": {BOp: 3934772, AllocsOp: 49927},
		// Custom metrics (rounds, queries/s) are skipped, not misread.
		"EngineSchedulerSparseActive": {BOp: 1689041, AllocsOp: 9753},
		"OracleServeDist/off":         {BOp: 7856, AllocsOp: 39},
	} {
		if got := res[name]; got == nil || *got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
	if got, ok := res["NoMem"]; ok {
		t.Errorf("line without -benchmem columns recorded: %+v", got)
	}
	if len(res) != 3 {
		t.Errorf("parsed %d benchmarks, want 3: %v", len(res), res)
	}

	if _, err := parseBench(bufio.NewScanner(strings.NewReader("BenchmarkX 1 5 ns/op 1.5 B/op 2 allocs/op\n"))); err == nil {
		t.Error("fractional B/op accepted")
	}
}

func TestOver(t *testing.T) {
	cases := []struct {
		cur, base int64
		want      bool
	}{
		{100, 100, false},
		{114, 100, false}, // within 15%
		{116, 100, true},  // beyond 15%
		{0, 0, false},
		{1, 0, true}, // was allocation-free, now allocates
		{50, 100, false},
	}
	for _, c := range cases {
		if got := over(c.cur, c.base, 0.15); got != c.want {
			t.Errorf("over(%v, %v) = %v, want %v", c.cur, c.base, got, c.want)
		}
	}
}

// benchLines renders go test -bench result lines; each row is name, B/op,
// allocs/op. The time column varies by row to show nothing reads it.
func benchLines(rows ...[3]any) string {
	var sb strings.Builder
	for i, r := range rows {
		fmt.Fprintf(&sb, "Benchmark%s-2 \t 10\t %d ns/op\t %d B/op\t %d allocs/op\n", r[0], 1000*(i+1)*(i+1), r[1], r[2])
	}
	return sb.String()
}

// gateRun drives run() with an in-memory stdin against the given baseline.
func gateRun(t *testing.T, stdin, baselinePath string, extra ...string) (int, string) {
	t.Helper()
	var out strings.Builder
	code := run(strings.NewReader(stdin), &out, io.Discard, append([]string{"-baseline", baselinePath}, extra...))
	return code, out.String()
}

// TestCompare records a three-row baseline through -update, then holds the
// compare path to its contract on synthetic inputs.
func TestCompare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	recorded := benchLines([3]any{"Plane", 1000, 100}, [3]any{"Round", 4096, 20}, [3]any{"Free", 0, 0})
	if code, out := gateRun(t, recorded, path, "-update"); code != 0 {
		t.Fatalf("-update exit %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{
  "benchmarks": {
    "Free": {
      "b_op": 0,
      "allocs_op": 0
    },
    "Plane": {
      "b_op": 1000,
      "allocs_op": 100
    },
    "Round": {
      "b_op": 4096,
      "allocs_op": 20
    }
  }
}
`; string(raw) != want {
		t.Fatalf("baseline is\n%s\nwant\n%s", raw, want)
	}

	for _, c := range []struct {
		name  string
		input string
		code  int
		want  []string // substrings of stdout
	}{
		{"the recording run passes its own gate", recorded, 0,
			[]string{"ok   Free", "ok   Plane: B/op 1000 (base 1000) allocs/op 100 (base 100)", "ok   Round"}},
		{"within 15% on both columns", benchLines([3]any{"Plane", 1140, 114}, [3]any{"Round", 4000, 19}, [3]any{"Free", 0, 0}), 0,
			[]string{"ok   Plane", "ok   Round"}},
		{"allocs +16%", benchLines([3]any{"Plane", 1000, 116}, [3]any{"Round", 4096, 20}, [3]any{"Free", 0, 0}), 1,
			[]string{"FAIL Plane", "allocs/op 116 > 100+15%", "ok   Round"}},
		{"B/op +16%", benchLines([3]any{"Plane", 1160, 100}, [3]any{"Round", 4096, 20}, [3]any{"Free", 0, 0}), 1,
			[]string{"FAIL Plane", "B/op 1160 > 1000+15%", "ok   Round"}},
		{"row missing from input", benchLines([3]any{"Plane", 1000, 100}, [3]any{"Free", 0, 0}), 1,
			[]string{"FAIL Round: present in baseline but not in input", "ok   Plane"}},
		{"new row is reported, not gated", recorded + benchLines([3]any{"Fresh", 1 << 30, 1 << 20}), 0,
			[]string{"new  Fresh: not in baseline", "ok   Plane"}},
		{"zero-alloc row starts allocating", benchLines([3]any{"Plane", 1000, 100}, [3]any{"Round", 4096, 20}, [3]any{"Free", 16, 1}), 1,
			[]string{"FAIL Free", "B/op 16 > 0+15%", "allocs/op 1 > 0+15%"}},
		{"best of -count is what is gated", recorded + benchLines([3]any{"Plane", 9000, 900}), 0,
			[]string{"ok   Plane: B/op 1000"}},
	} {
		code, out := gateRun(t, c.input, path)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d:\n%s", c.name, code, c.code, out)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, want, out)
			}
		}
	}

	// A looser -threshold is honoured.
	if code, out := gateRun(t, benchLines([3]any{"Plane", 1160, 116}, [3]any{"Round", 4096, 20}, [3]any{"Free", 0, 0}), path, "-threshold", "0.2"); code != 0 {
		t.Errorf("-threshold 0.2 exit %d:\n%s", code, out)
	}
}

// TestUpdateShowsChanges: -update prints one line per row it moves, old →
// new with rises marked, and nothing for a row that stays put.
func TestUpdateShowsChanges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	first := benchLines([3]any{"Plane", 1000, 100}, [3]any{"Round", 4096, 20}, [3]any{"Gone", 8, 1})
	code, out := gateRun(t, first, path, "-update")
	if code != 0 {
		t.Fatalf("first -update exit %d:\n%s", code, out)
	}
	if want := "new     Gone: B/op 8 allocs/op 1\nnew     Plane: B/op 1000 allocs/op 100\nnew     Round: B/op 4096 allocs/op 20\n" +
		"benchgate: wrote " + path + " (3 benchmarks)\n"; out != want {
		t.Fatalf("first -update printed\n%s\nwant\n%s", out, want)
	}

	second := benchLines([3]any{"Plane", 1000, 98}, [3]any{"Round", 4100, 19}, [3]any{"Fresh", 16, 2})
	code, out = gateRun(t, second, path, "-update")
	if code != 0 {
		t.Fatalf("second -update exit %d:\n%s", code, out)
	}
	if want := "new     Fresh: B/op 16 allocs/op 2\n" +
		"changed Plane: allocs/op 100 → 98\n" +
		"changed Round: B/op 4096 → 4100 (rise), allocs/op 20 → 19\n" +
		"dropped Gone\n" +
		"benchgate: wrote " + path + " (3 benchmarks)\n"; out != want {
		t.Fatalf("second -update printed\n%s\nwant\n%s", out, want)
	}

	if code, out = gateRun(t, second, path, "-update"); code != 0 || out != "benchgate: wrote "+path+" (3 benchmarks)\n" {
		t.Fatalf("re-recording unchanged rows: exit %d, printed\n%s", code, out)
	}
}

// TestUsageErrors: everything that is not a verdict exits 2.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	row := benchLines([3]any{"Plane", 1000, 100})
	for _, c := range []struct {
		name, input, baseline string
		extra                 []string
	}{
		{"no results on stdin", "PASS\n", garbled, nil},
		{"results without -benchmem", "BenchmarkNoMem 100 1234 ns/op\n", garbled, nil},
		{"unparsable value", "BenchmarkX 1 5 ns/op x B/op 2 allocs/op\n", garbled, nil},
		{"baseline missing", row, filepath.Join(dir, "absent.json"), nil},
		{"baseline not JSON", row, garbled, nil},
		{"baseline not writable", row, filepath.Join(dir, "no", "such", "dir.json"), []string{"-update"}},
		{"baseline to update not JSON", row, garbled, []string{"-update"}},
		{"unknown flag", row, garbled, []string{"-bogus"}},
	} {
		if code, out := gateRun(t, c.input, c.baseline, c.extra...); code != 2 {
			t.Errorf("%s: exit %d, want 2:\n%s", c.name, code, out)
		}
	}
}
