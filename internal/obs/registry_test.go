package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryTextFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("oracle_queries_total", "queries served", L("kind", "dist"))
	c.Add(3)
	c.Inc()
	reg.Counter("oracle_queries_total", "queries served", L("kind", "path")).Inc()
	reg.Gauge("oracle_generation", "snapshot generation").Set(7)
	h := reg.Histogram("oracle_latency_seconds", "query latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2) // +Inf bucket

	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP oracle_queries_total queries served",
		"# TYPE oracle_queries_total counter",
		`oracle_queries_total{kind="dist"} 4`,
		`oracle_queries_total{kind="path"} 1`,
		"# TYPE oracle_generation gauge",
		"oracle_generation 7",
		"# TYPE oracle_latency_seconds histogram",
		`oracle_latency_seconds_bucket{le="0.001"} 1`,
		`oracle_latency_seconds_bucket{le="0.01"} 1`,
		`oracle_latency_seconds_bucket{le="0.1"} 2`,
		`oracle_latency_seconds_bucket{le="+Inf"} 3`,
		"oracle_latency_seconds_sum 2.0505",
		"oracle_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render in registration order, series in first-use order.
	if strings.Index(out, "oracle_queries_total") > strings.Index(out, "oracle_generation") {
		t.Error("family order not preserved")
	}
	if strings.Index(out, `kind="dist"`) > strings.Index(out, `kind="path"`) {
		t.Error("series order not preserved")
	}
}

func TestRegistryReregisterReturnsSameSeries(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x")
	b := reg.Counter("x_total", "x")
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("re-registered counter diverged: %v", a.Value())
	}
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, ln := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(ln, "x_total ") {
			samples++
		}
	}
	if samples != 1 {
		t.Fatalf("duplicate series rendered:\n%s", buf.String())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("y_total", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("registering y_total as gauge did not panic")
		}
	}()
	reg.Gauge("y_total", "y")
}

// countLine returns the exposition's "<name>_count" line.
func countLine(t *testing.T, reg *Registry, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+"_count ") {
			return line
		}
	}
	t.Fatalf("no %s_count line in:\n%s", name, buf.String())
	return ""
}

func TestHistogramCount(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("c_seconds", "c", []float64{1, 2, 4, 8})
	if got := countLine(t, reg, "c_seconds"); got != "c_seconds_count 0" {
		t.Fatalf("empty histogram: %q, want count 0", got)
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // le=1
	}
	for i := 0; i < 9; i++ {
		h.Observe(3) // le=4
	}
	h.Observe(100) // +Inf
	if got := countLine(t, reg, "c_seconds"); got != "c_seconds_count 100" {
		t.Errorf("%q, want count 100", got)
	}
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "c")
	h := reg.Histogram("conc_seconds", "h", []float64{1, 10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	if got := countLine(t, reg, "conc_seconds"); got != "conc_seconds_count 8000" {
		t.Fatalf("%q, want histogram count 8000", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "e", L("phase", `a"b\c`)).Inc()
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `esc_total{phase="a\"b\\c"} 1`) {
		t.Fatalf("escaped label missing:\n%s", buf.String())
	}
}
