package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// exactCounts are the per-layer counts that two runs of the same code on
// the same seed must reproduce bit for bit.
var exactCounts = []string{
	"congest.rounds", "congest.messages",
	"hssp.cssp_rounds", "hssp.blocker_rounds", "hssp.sssp_rounds", "hssp.broadcast_rounds",
}

const (
	verdictWithin     = "within"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// side is one end-to-end metric on one workload on one side of a
// comparison: the value of every run, and for a lone run its own spread.
type side struct {
	values []float64
	// inner is the widest (q3-q1)/median any single run reported for its
	// own samples; it stands in for the run-to-run spread when there are
	// too few runs to take quartiles over.
	inner float64
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 {
	if len(s.values) >= 4 {
		d := summarize(s.values)
		return ratio(d.Q3-d.Q1, d.Median)
	}
	return s.inner
}

// judge compares parent a with change b on a metric whose bound is the
// share of a's median by which b may be worse.
//
//	unresolved  the runs of either side spread wider than the bound, unless
//	            every run of b reads better than every run of a
//	regression  b's median is worse than a's by more than the bound
//	within      otherwise
func judge(a, b side, better string, bound float64) (rel float64, verdict string) {
	ma, mb := median(a.values), median(b.values)
	rel = ratio(mb-ma, ma)
	worse := rel
	if better == "higher" {
		worse = -rel
	}
	if max(a.spread(), b.spread()) > bound && !allBetter(a.values, b.values, better) {
		return rel, verdictUnresolved
	}
	if worse > bound {
		return rel, verdictRegression
	}
	return rel, verdictWithin
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// loadResults reads a file of result records, one JSON object per line.
func loadResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func sideOf(rs []result, workload, metric string) side {
	var s side
	for _, r := range rs {
		v, ok := r.Metrics[metric]
		if r.Workload != workload || r.Trace != 0 || !ok {
			continue
		}
		s.values = append(s.values, v.Value)
		if v.N > 0 {
			s.inner = max(s.inner, ratio(v.Q3-v.Q1, v.Value))
		}
	}
	return s
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference, the bound and a verdict; then the exact counts
// and the failures. It returns 0 only when every line is within.
func compareFiles(w io.Writer, aPath, bPath string) int {
	var sides [2][]result
	for i, path := range []string{aPath, bPath} {
		rs, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sides[i] = rs
	}
	return compareResults(w, sides[0], sides[1])
}

func compareResults(w io.Writer, a, b []result) int {
	bad := 0
	fmt.Fprintf(w, "%-15s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, sb := sideOf(a, wl.name, d.Name), sideOf(b, wl.name, d.Name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			rel, verdict := judge(sa, sb, d.Better, d.Bound)
			if verdict != verdictWithin {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-12s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, median(sa.values), median(sb.values), 100*rel, 100*d.Bound, verdict)
		}
	}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Trace != 1 || rb.Trace != 1 {
				continue
			}
			for _, name := range exactCounts {
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				if va == 0 && vb == 0 {
					continue
				}
				verdict := "equal"
				if va != vb {
					verdict = "DIFFERENT"
					bad++
				}
				fmt.Fprintf(w, "%-15s %-28s %14.0f %14.0f  %s\n", ra.Workload, name, va, vb, verdict)
			}
		}
	}
	for _, rs := range [][]result{a, b} {
		for _, r := range rs {
			if r.Failed != 0 || !r.Correct {
				bad++
				fmt.Fprintf(w, "%-15s seed %d trace %d: failed %d of %d, correct=%v\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted, r.Correct)
			}
		}
	}
	if bad != 0 {
		fmt.Fprintf(w, "%d lines are not within their bounds\n", bad)
		return 1
	}
	fmt.Fprintln(w, "every line is within its bound, every exact count equal, nothing failed")
	return 0
}
