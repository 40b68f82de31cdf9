// Command covergate compares per-package statement coverage, read from a
// merged coverage profile, against committed per-package floors and fails
// on regression. It is benchgate's sibling: the same dependency-free stdin
// comparator shape, applied to statement coverage instead of allocations.
//
// Usage:
//
//	go test -coverpkg=./... -coverprofile=cover.out ./...
//	covergate -baseline COVERAGE.json < cover.out
//	covergate -baseline COVERAGE.json -update < cover.out
//
// The profile is measured module-wide: a statement counts as covered when
// any package's tests ran it, so a package is credited with the root
// package's sweeps that exercise it, and deleting such a sweep trips the
// floor of the package it covered. The baseline maps each package to its
// coverage floor in percentage points. On compare, a package measuring
// below its floor fails, and a package present in the baseline but absent
// from the input fails too (deleting the package trips it), so coverage
// can never silently disappear. Packages not in the baseline are reported
// as new without failing (record them with -update).
//
// -update writes floor = measured − margin (default 2 points, clamped at
// 0): the slack absorbs run-to-run jitter from timing-dependent branches
// without letting a whole test file vanish unnoticed.
//
// Exit status 0 when every floor holds, 1 on any regression or missing
// package, 2 on usage/parse errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// baseline is the committed COVERAGE.json document: package import path →
// coverage floor in percentage points.
type baseline struct {
	Floors map[string]float64 `json:"floors"`
}

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdin io.Reader, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("covergate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "COVERAGE.json", "baseline file to compare against (or write with -update)")
	update := fs.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	margin := fs.Float64("margin", 2.0, "floor slack in percentage points on -update (floor = measured − margin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fs.Usage()
		fmt.Fprintf(stderr, "covergate: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	cur, err := parseCover(bufio.NewScanner(stdin))
	if err != nil {
		fmt.Fprintln(stderr, "covergate:", err)
		return 2
	}
	if len(cur) == 0 {
		fmt.Fprintln(stderr, "covergate: no coverage profile on stdin")
		return 2
	}

	if *update {
		floors := make(map[string]float64, len(cur))
		for pkg, pct := range cur {
			floors[pkg] = max(0, math.Round(10*(pct-*margin))/10)
		}
		buf, err := json.MarshalIndent(&baseline{Floors: floors}, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "covergate:", err)
			return 2
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*baselinePath, buf, 0o644); err != nil {
			fmt.Fprintln(stderr, "covergate:", err)
			return 2
		}
		fmt.Fprintf(stdout, "covergate: wrote %s (%d packages, margin %.1f points)\n", *baselinePath, len(floors), *margin)
		return 0
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "covergate:", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "covergate: %s: %v\n", *baselinePath, err)
		return 2
	}

	pkgs := make([]string, 0, len(base.Floors))
	for pkg := range base.Floors {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)

	failed := false
	for _, pkg := range pkgs {
		floor := base.Floors[pkg]
		pct, ok := cur[pkg]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "FAIL %s: in baseline (floor %.1f%%) but not in input\n", pkg, floor)
			failed = true
		case pct < floor:
			fmt.Fprintf(stdout, "FAIL %s: %.1f%% < floor %.1f%%\n", pkg, pct, floor)
			failed = true
		default:
			fmt.Fprintf(stdout, "ok   %s: %.1f%% (floor %.1f%%)\n", pkg, pct, floor)
		}
	}
	newPkgs := make([]string, 0)
	for pkg := range cur {
		if _, ok := base.Floors[pkg]; !ok {
			newPkgs = append(newPkgs, pkg)
		}
	}
	sort.Strings(newPkgs)
	for _, pkg := range newPkgs {
		fmt.Fprintf(stdout, "new  %s: %.1f%% not in baseline (run with -update to record)\n", pkg, cur[pkg])
	}
	if failed {
		return 1
	}
	return 0
}

// parseCover reads a coverage profile — the merged one `go test
// -coverpkg=./... -coverprofile` writes for the whole module — and returns
// package → statement coverage in percent, to one decimal. A profile line
// is
//
//	repro/internal/graph/graph.go:54.41,55.40 1 3
//
// (block, statements, count). Each test binary contributes one line per
// block it was built with, so a block appears once per binary; it counts
// as covered when any binary ran it. Coverage is thus credited to the
// package that holds the code, whichever package's tests ran it. "mode:"
// lines and blank lines are skipped.
func parseCover(sc *bufio.Scanner) (map[string]float64, error) {
	stmts, hit := map[string]int{}, map[string]bool{} // per block
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || !strings.Contains(f[0], ":") {
			return nil, fmt.Errorf("bad profile line %q", line)
		}
		n, err1 := strconv.Atoi(f[1])
		count, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || n < 0 || count < 0 {
			return nil, fmt.Errorf("bad counts in profile line %q", line)
		}
		stmts[f[0]] = n
		hit[f[0]] = hit[f[0]] || count > 0
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	total, covered := map[string]int{}, map[string]int{}
	for pos, n := range stmts {
		file, _, _ := strings.Cut(pos, ":")
		pkg := path.Dir(file)
		total[pkg] += n
		if hit[pos] {
			covered[pkg] += n
		}
	}
	res := make(map[string]float64, len(total))
	for pkg, n := range total {
		if n > 0 {
			res[pkg] = math.Round(1000*float64(covered[pkg])/float64(n)) / 10
		}
	}
	return res, nil
}
