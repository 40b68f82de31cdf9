// Command benchgate compares the memory columns of `go test -bench
// -benchmem` output against a committed baseline and fails on regression.
// It is the repo's stand-in for benchstat in a network-less build: a
// small, dependency-free comparator with the semantics CI actually needs.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem -cpu 1 -count 2 . | benchgate -baseline BENCH_engine.json
//	go test -run '^$' -bench ... -benchmem -cpu 1 -count 2 . | benchgate -baseline BENCH_engine.json -update
//
// The baseline records, per benchmark, the minimum B/op and allocs/op over
// the input's -count repetitions. Under -cpu 1 both are functions of the
// code alone, not of the host's speed or load (the engine forks a round
// only when it has a second P and the round's measured work pays for the
// barrier), so a row repeats to ±1 allocation anywhere. On compare:
//
//   - A row whose B/op or allocs/op exceeds the baseline by more than
//     -threshold (default 15%) fails. A zero baseline gates any increase.
//   - A benchmark present in the baseline but missing from the input (or
//     run without -benchmem) fails: coverage cannot silently disappear.
//   - A benchmark not in the baseline is reported as new without failing
//     (record it with -update).
//
// Wall-clock time is deliberately not read: it has one home, the ledger
// (BENCHMARK.json, benchmark/README.md), whose interleaved two-checkout
// procedure is what a timing claim needs on a shared host.
//
// Exit status 0 when within bounds, 1 on any regression or missing
// benchmark, 2 on usage/parse errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's best-of-count memory measurements.
type result struct {
	BOp      int64 `json:"b_op"`
	AllocsOp int64 `json:"allocs_op"`
}

// baseline is the committed BENCH_engine.json document: benchmark name
// (GOMAXPROCS suffix stripped) → measurements.
type baseline struct {
	Benchmarks map[string]*result `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdin io.Reader, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_engine.json", "baseline file to compare against (or write with -update)")
	update := fs.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	threshold := fs.Float64("threshold", 0.15, "allowed fractional regression for B/op and allocs/op")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cur, err := parseBench(bufio.NewScanner(stdin))
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	if len(cur) == 0 {
		fmt.Fprintln(stderr, "benchgate: no -benchmem results on stdin")
		return 2
	}

	if *update {
		buf, err := json.MarshalIndent(&baseline{Benchmarks: cur}, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*baselinePath, buf, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchgate: wrote %s (%d benchmarks)\n", *baselinePath, len(cur))
		return 0
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchgate: %s: %v\n", *baselinePath, err)
		return 2
	}

	failed := false
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(stdout, "FAIL %s: present in baseline but not in input\n", name)
			failed = true
			continue
		}
		var notes []string
		if over(c.BOp, b.BOp, *threshold) {
			notes = append(notes, fmt.Sprintf("B/op %d > %d+%.0f%%", c.BOp, b.BOp, *threshold*100))
		}
		if over(c.AllocsOp, b.AllocsOp, *threshold) {
			notes = append(notes, fmt.Sprintf("allocs/op %d > %d+%.0f%%", c.AllocsOp, b.AllocsOp, *threshold*100))
		}
		line := fmt.Sprintf("%s: B/op %d (base %d) allocs/op %d (base %d)", name, c.BOp, b.BOp, c.AllocsOp, b.AllocsOp)
		if len(notes) > 0 {
			failed = true
			fmt.Fprintf(stdout, "FAIL %s — %s\n", line, strings.Join(notes, "; "))
		} else {
			fmt.Fprintf(stdout, "ok   %s\n", line)
		}
	}
	for _, name := range sortedNames(cur) {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(stdout, "new  %s: not in baseline (run with -update to record)\n", name)
		}
	}
	if failed {
		return 1
	}
	return 0
}

func sortedNames(m map[string]*result) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// over reports whether cur exceeds base by more than the fractional
// threshold. A zero base gates any increase (there is no meaningful
// percentage of zero — and "was allocation-free, now allocates" is
// exactly the regression the gate exists for).
func over(cur, base int64, threshold float64) bool {
	if base == 0 {
		return cur > 0
	}
	return float64(cur) > float64(base)*(1+threshold)
}

// parseBench reads `go test -bench -benchmem` text output: each
// "Benchmark..." line that carries both B/op and allocs/op contributes one
// measurement (every other column, custom metrics included, is skipped),
// and repetitions (-count > 1) collapse to the minimum per metric.
// GOMAXPROCS suffixes ("-8") are stripped so one baseline serves any -cpu.
func parseBench(sc *bufio.Scanner) (map[string]*result, error) {
	res := make(map[string]*result)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		one := result{BOp: -1, AllocsOp: -1}
		for i := 2; i+1 < len(f); i += 2 {
			var dst *int64
			switch f[i+1] {
			case "B/op":
				dst = &one.BOp
			case "allocs/op":
				dst = &one.AllocsOp
			default:
				continue
			}
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", f[i], sc.Text())
			}
			*dst = v
		}
		if one.BOp < 0 || one.AllocsOp < 0 {
			continue
		}
		if prev, ok := res[name]; ok {
			prev.BOp = min(prev.BOp, one.BOp)
			prev.AllocsOp = min(prev.AllocsOp, one.AllocsOp)
		} else {
			res[name] = &one
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
