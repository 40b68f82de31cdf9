package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := func(v float64) side { return side{values: []float64{v}, inner: 0.01} }
	cases := []struct {
		name   string
		a, b   side
		better string
		bound  float64
		want   string
	}{
		{"same", steady(100), steady(100), "lower", 0.10, verdictWithin},
		{"slower inside the bound", steady(100), steady(109), "lower", 0.10, verdictWithin},
		{"slower past the bound", steady(100), steady(111), "lower", 0.10, verdictRegression},
		{"faster", steady(100), steady(50), "lower", 0.10, verdictWithin},
		{"throughput drop", steady(1000), steady(880), "higher", 0.10, verdictRegression},
		{"throughput gain", steady(1000), steady(2000), "higher", 0.10, verdictWithin},
		{"lone run spread wider than the bound", side{values: []float64{100}, inner: 0.2}, steady(101), "lower", 0.10, verdictUnresolved},
		{"runs spread wider than the bound",
			side{values: []float64{80, 90, 100, 110, 120}}, side{values: []float64{85, 95, 105, 115, 125}}, "lower", 0.10, verdictUnresolved},
		{"wide but every run better",
			side{values: []float64{80, 90, 100, 110, 120}}, side{values: []float64{40, 50, 60, 70, 75}}, "lower", 0.10, verdictWithin},
		{"many runs, tight, regression",
			side{values: []float64{99, 100, 100, 101}}, side{values: []float64{119, 120, 120, 121}}, "lower", 0.10, verdictRegression},
	}
	for _, c := range cases {
		if _, got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func run(workload string, trace int, metrics map[string]value) result {
	return result{Workload: workload, Seed: 7, Trace: trace, Correct: true, Attempted: 10, Metrics: metrics}
}

func TestCompareResults(t *testing.T) {
	e2e := func(op float64) map[string]value {
		return map[string]value{
			"op_ms": {Value: op, N: 9, Q1: op * 0.99, Q3: op * 1.01}, "ops_per_s": {Value: 1e3 / op},
			"peak_rss_mb": {Value: 50}, "setup_s": {Value: 1, N: 3, Q1: 0.99, Q3: 1.01},
		}
	}
	counts := func(rounds float64) map[string]value {
		return map[string]value{"congest.rounds": {Value: rounds}, "congest.messages": {Value: 5}}
	}
	a := []result{run("sim_apsp", 0, e2e(500)), run("sim_apsp", 1, counts(1443))}

	var out bytes.Buffer
	if code := compareResults(&out, a, a); code != 0 {
		t.Errorf("A/A of identical records: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "congest.rounds") || !strings.Contains(out.String(), "equal") {
		t.Errorf("exact counts missing from:\n%s", out.String())
	}

	out.Reset()
	slow := []result{run("sim_apsp", 0, e2e(700)), run("sim_apsp", 1, counts(1443))}
	if code := compareResults(&out, a, slow); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("40%% slower: exit %d\n%s", code, out.String())
	}

	out.Reset()
	drift := []result{run("sim_apsp", 0, e2e(500)), run("sim_apsp", 1, counts(1444))}
	if code := compareResults(&out, a, drift); code != 1 || !strings.Contains(out.String(), "DIFFERENT") {
		t.Errorf("a round count off by one: exit %d\n%s", code, out.String())
	}

	out.Reset()
	failing := []result{run("sim_apsp", 0, e2e(500))}
	failing[0].Failed = 1
	if code := compareResults(&out, a, failing); code != 1 {
		t.Errorf("a failed operation: exit %d\n%s", code, out.String())
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestVocabularyMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
