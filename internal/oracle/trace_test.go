package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// spanSink captures emitted traces in memory for assertions.
type spanSink struct {
	mu     sync.Mutex
	traces [][]trace.SpanRecord
}

func (m *spanSink) Trace(spans []trace.SpanRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.traces = append(m.traces, spans)
	return nil
}

func (m *spanSink) Close() error { return nil }

func (m *spanSink) all() [][]trace.SpanRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([][]trace.SpanRecord(nil), m.traces...)
}

// tracedServer is newTestServer plus an always-sample tracer feeding a
// memory sink.
func tracedServer(t *testing.T, tweak func(*Server)) (*httptest.Server, *Server, *Snapshot, *spanSink) {
	t.Helper()
	sink := &spanSink{}
	tracer := trace.New(trace.Options{SampleEvery: 1, Seed: 99, Sinks: []trace.Sink{sink}})
	ts, srv, snap := newTestServer(t, func(s *Server) {
		s.Tracer = tracer
		if tweak != nil {
			tweak(s)
		}
	})
	t.Cleanup(func() { tracer.Close() })
	return ts, srv, snap, sink
}

// spanNames maps name -> record for a single trace's spans.
func spanNames(spans []trace.SpanRecord) map[string]trace.SpanRecord {
	out := make(map[string]trace.SpanRecord, len(spans))
	for _, s := range spans {
		out[s.Name] = s
	}
	return out
}

func TestServerTracedPathSpanTree(t *testing.T) {
	ts, _, snap, sink := tracedServer(t, nil)
	src := snap.Sources()[1]
	row, _ := snap.Row(src)
	dst := -1
	for v := 0; v < snap.N(); v++ {
		if p, err := snap.Path(row, v); err == nil && len(p) >= 2 {
			dst = v
			break
		}
	}
	if dst < 0 {
		t.Fatal("no reachable multi-hop destination in fixture")
	}

	url := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst)
	for i, wantHit := range []string{"false", "true"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d", i, resp.StatusCode)
		}
		if hdr := resp.Header.Get(trace.TraceparentHeader); hdr == "" {
			t.Fatalf("request %d: no traceparent echoed", i)
		} else if _, _, sampled, ok := trace.ParseTraceparent(hdr); !ok || !sampled {
			t.Fatalf("request %d: echoed traceparent %q invalid or unsampled", i, hdr)
		}

		traces := sink.all()
		if len(traces) != i+1 {
			t.Fatalf("request %d: %d traces emitted", i, len(traces))
		}
		spans := traces[i]
		byName := spanNames(spans)
		root, ok := byName["serve.path"]
		if !ok || root.Parent != "" {
			t.Fatalf("request %d: no serve.path root in %v", i, byName)
		}
		if root.Attrs["http.status"] != "200" || root.Attrs["gen"] == "" {
			t.Fatalf("request %d: root attrs %v", i, root.Attrs)
		}
		probe, ok := byName["cache.probe"]
		if !ok || probe.Parent != root.SpanID {
			t.Fatalf("request %d: cache.probe missing or misparented: %+v", i, probe)
		}
		if probe.Attrs["hit"] != wantHit {
			t.Fatalf("request %d: cache.probe hit=%q, want %q", i, probe.Attrs["hit"], wantHit)
		}
		walk, walked := byName["walk"]
		if wantHit == "false" {
			if !walked || walk.Parent != root.SpanID {
				t.Fatalf("cold request: walk span missing or misparented: %+v", walk)
			}
			if walk.Attrs["hops"] == "" {
				t.Fatalf("cold request: walk lacks hops attr: %v", walk.Attrs)
			}
		} else if walked {
			t.Fatalf("cached request still walked parents: %+v", walk)
		}
	}
}

func TestServerTracedDistLookup(t *testing.T) {
	ts, _, snap, sink := tracedServer(t, nil)
	src := snap.Sources()[0]
	if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=1", ts.URL, src), nil); status != http.StatusOK {
		t.Fatalf("dist status %d", status)
	}
	traces := sink.all()
	if len(traces) != 1 {
		t.Fatalf("%d traces emitted", len(traces))
	}
	byName := spanNames(traces[0])
	root, ok := byName["serve.dist"]
	if !ok {
		t.Fatalf("no serve.dist root in %v", byName)
	}
	if lk, ok := byName["lookup"]; !ok || lk.Parent != root.SpanID {
		t.Fatalf("lookup span missing or misparented: %+v", lk)
	}
}

func TestServerTraceparentExtraction(t *testing.T) {
	ts, _, snap, sink := tracedServer(t, nil)
	const upstream = "11f92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", fmt.Sprintf("%s/dist?src=%d&dst=3", ts.URL, snap.Sources()[0]), nil)
	req.Header.Set(trace.TraceparentHeader, trace.FormatTraceparent(upstream, "00f067aa0ba902b7", true))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	id, _, sampled, ok := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if !ok || id != upstream || !sampled {
		t.Fatalf("echoed traceparent %q does not continue upstream trace %s",
			resp.Header.Get(trace.TraceparentHeader), upstream)
	}
	traces := sink.all()
	if len(traces) != 1 || traces[0][0].TraceID != upstream {
		t.Fatalf("emitted trace does not carry upstream ID: %v", traces)
	}
}

func TestServerErrorTracedAndCounted(t *testing.T) {
	ts, _, _, sink := tracedServer(t, nil)
	if status := getJSON(t, ts.URL+"/dist?src=0&dst=99999", nil); status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	traces := sink.all()
	if len(traces) != 1 {
		t.Fatalf("%d traces emitted", len(traces))
	}
	root := traces[0][0]
	if root.Err == "" || root.Attrs["http.status"] != "400" {
		t.Fatalf("failed request's root span not marked: %+v", root)
	}
}

func TestServerBatchSegmentSpans(t *testing.T) {
	ts, _, snap, sink := tracedServer(t, nil)
	src := snap.Sources()[0]
	var queries []Query
	for v := 0; v < snap.N(); v++ {
		queries = append(queries, Query{Kind: "dist", Src: src, Dst: v})
	}
	body := batchBody(queries)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	traces := sink.all()
	if len(traces) != 1 {
		t.Fatalf("%d traces emitted, want 1 (per-query spans must be suppressed)", len(traces))
	}
	byName := spanNames(traces[0])
	root, ok := byName["serve.batch"]
	if !ok {
		t.Fatalf("no serve.batch root in %v", byName)
	}
	if root.Attrs["queries"] != fmt.Sprint(len(queries)) {
		t.Fatalf("root queries attr %q, want %d", root.Attrs["queries"], len(queries))
	}
	segs := 0
	for _, s := range traces[0] {
		switch s.Name {
		case "batch.segment":
			segs++
			if s.Parent != root.SpanID || s.Attrs["offset"] == "" {
				t.Fatalf("segment span malformed: %+v", s)
			}
		case "cache.probe", "walk", "lookup":
			t.Fatalf("per-query span %q leaked into batch trace", s.Name)
		}
	}
	if segs != 1 {
		t.Fatalf("%d batch.segment spans for %d queries, want 1", segs, len(queries))
	}
}

func TestServerSlowQueryLogCarriesTraceID(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	handler, err := obs.NewLogHandler(lockedWriter, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	ts, _, snap, sink := tracedServer(t, func(s *Server) {
		s.Log = slog.New(trace.LogHandler(handler))
		s.SlowQuery = time.Nanosecond // everything is slow
	})
	if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=1", ts.URL, snap.Sources()[0]), nil); status != http.StatusOK {
		t.Fatalf("dist status %d", status)
	}
	traces := sink.all()
	if len(traces) != 1 {
		t.Fatalf("%d traces emitted", len(traces))
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	var rec struct {
		Msg     string `json:"msg"`
		Kind    string `json:"kind"`
		TraceID string `json:"trace_id"`
	}
	line := ""
	for _, l := range strings.Split(logged, "\n") {
		if strings.Contains(l, `"slow query"`) {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no slow-query line in log output %q", logged)
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("bad slow-query log line %q: %v", line, err)
	}
	if rec.Msg != "slow query" || rec.Kind != "dist" {
		t.Fatalf("slow-query record %+v", rec)
	}
	if rec.TraceID != traces[0][0].TraceID {
		t.Fatalf("log trace_id %q != emitted trace %q", rec.TraceID, traces[0][0].TraceID)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestServerExemplarInOpenMetrics(t *testing.T) {
	ts, _, snap, sink := tracedServer(t, nil)
	if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=2", ts.URL, snap.Sources()[0]), nil); status != http.StatusOK {
		t.Fatalf("dist status %d", status)
	}
	traces := sink.all()
	if len(traces) != 1 {
		t.Fatalf("%d traces emitted", len(traces))
	}
	traceID := traces[0][0].TraceID

	// OpenMetrics negotiation carries the exemplar and the EOF marker.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("openmetrics Content-Type %q", ct)
	}
	want := fmt.Sprintf(`# {trace_id="%s"}`, traceID)
	if !strings.Contains(string(om), want) {
		t.Fatalf("openmetrics output lacks exemplar %s:\n%s", want, om)
	}
	if !strings.HasSuffix(strings.TrimRight(string(om), "\n"), "# EOF") {
		t.Fatal("openmetrics output lacks # EOF terminator")
	}

	// The classic exposition must stay exemplar-free for old scrapers.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	classic, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("classic Content-Type %q", ct)
	}
	if strings.Contains(string(classic), "# {") || strings.Contains(string(classic), "# EOF") {
		t.Fatal("classic exposition leaked OpenMetrics syntax")
	}
}

func TestServerUntracedHasNoTraceHeaders(t *testing.T) {
	ts, _, snap := newTestServer(t, nil) // no tracer wired
	resp, err := http.Get(fmt.Sprintf("%s/dist?src=%d&dst=1", ts.URL, snap.Sources()[0]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist status %d", resp.StatusCode)
	}
	if hdr := resp.Header.Get(trace.TraceparentHeader); hdr != "" {
		t.Fatalf("untraced server echoed traceparent %q", hdr)
	}
}
