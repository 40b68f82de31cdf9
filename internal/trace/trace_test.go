package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// memSink captures emitted traces in memory.
type memSink struct {
	mu     sync.Mutex
	traces [][]SpanRecord
	closed bool
}

func (m *memSink) Trace(spans []SpanRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.traces = append(m.traces, spans)
	return nil
}

func (m *memSink) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *memSink) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.traces)
}

func newTestTracer(t *testing.T, opts Options) (*Tracer, *memSink) {
	t.Helper()
	sink := &memSink{}
	opts.Sinks = append(opts.Sinks, sink)
	tr := New(opts)
	if tr == nil {
		t.Fatal("New returned the disabled tracer for enabled options")
	}
	return tr, sink
}

func TestNilTracerIsFreeAndSilent(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRequest(context.Background(), "req", "")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil tracer put a span in the context")
	}
	// Every nil-span method must be a no-op, not a panic.
	sp.Set("k", "v")
	sp.SetInt("n", 1)
	sp.Error(errors.New("x"))
	sp.Child("c").End()
	sp.End()
	if sp.TraceID() != "" || sp.ID() != "" || sp.Sampled() || sp.Traceparent() != "" {
		t.Fatal("nil span leaked identity")
	}
	if tr.Emitted() != 0 || tr.Err() != nil || tr.Close() != nil {
		t.Fatal("nil tracer is not fully inert")
	}
	if sp := FromContext(ctx).Child("child"); sp != nil {
		t.Fatal("Child minted a span from an untraced context")
	}
}

func TestNewReturnsDisabledWithoutSinksOrSampling(t *testing.T) {
	if New(Options{SampleEvery: 1}) != nil {
		t.Fatal("tracer without sinks should be disabled")
	}
}

func TestDeterministicIDs(t *testing.T) {
	run := func() []string {
		tr, _ := newTestTracer(t, Options{SampleEvery: 1, Seed: 42})
		var ids []string
		for i := 0; i < 4; i++ {
			_, sp := tr.StartRequest(context.Background(), "req", "")
			ids = append(ids, sp.TraceID(), sp.ID())
			sp.End()
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ID %d differs across identical runs: %s vs %s", i, a[i], b[i])
		}
		if len(a[i])%16 != 0 || !isLowerHex(a[i]) {
			t.Fatalf("ID %d is not lowercase hex: %q", i, a[i])
		}
	}
	if a[0] == a[2] {
		t.Fatal("consecutive requests share a trace ID")
	}
}

func TestHeadSamplingOneInN(t *testing.T) {
	tr, sink := newTestTracer(t, Options{SampleEvery: 3, Seed: 1})
	for i := 0; i < 9; i++ {
		_, sp := tr.StartRequest(context.Background(), "req", "")
		sp.End()
	}
	if got := sink.count(); got != 3 {
		t.Fatalf("1-in-3 sampling over 9 requests emitted %d traces, want 3", got)
	}
	if tr.Emitted() != 3 {
		t.Fatalf("Emitted() = %d, want 3", tr.Emitted())
	}
}

func TestTailCaptureSlowAndError(t *testing.T) {
	tr, sink := newTestTracer(t, Options{SlowThreshold: time.Nanosecond, Seed: 1})
	_, sp := tr.StartRequest(context.Background(), "slow", "")
	time.Sleep(time.Millisecond)
	sp.End()
	if sink.count() != 1 {
		t.Fatal("slow trace was not tail-captured")
	}

	tr2, sink2 := newTestTracer(t, Options{Seed: 1})
	_, ok := tr2.StartRequest(context.Background(), "fine", "")
	ok.End()
	if sink2.count() != 0 {
		t.Fatal("healthy trace emitted without head sampling")
	}
	ctx, root := tr2.StartRequest(context.Background(), "bad", "")
	child := FromContext(ctx).Child("inner")
	child.Error(errors.New("boom"))
	child.End()
	root.End()
	if sink2.count() != 1 {
		t.Fatal("error trace was not tail-captured")
	}
	spans := sink2.traces[0]
	if spans[1].Err != "boom" {
		t.Fatalf("child error not recorded: %+v", spans[1])
	}
}

// TestSpanTreeShape runs on an injected deterministic clock (one
// millisecond per reading), so every recorded start and duration is an
// exact expected value — no slack for µs rounding, which made the
// wall-clock version of this test flaky.
func TestSpanTreeShape(t *testing.T) {
	base := time.UnixMicro(1_700_000_000_000_000)
	var readings int
	clock := func() time.Time {
		readings++
		return base.Add(time.Duration(readings-1) * time.Millisecond)
	}
	tr, sink := newTestTracer(t, Options{SampleEvery: 1, Seed: 7})
	tr.now = clock
	ctx, root := tr.StartRequest(context.Background(), "serve.path", "")
	root.SetInt("gen", 3)
	probe := FromContext(ctx).Child("cache.probe")
	probe.Set("hit", "false")
	probe.End()
	if FromContext(ContextWith(ctx, probe)) != probe {
		t.Fatal("ContextWith did not thread the child through the context")
	}
	walk := root.Child("walk")
	walk.End()
	root.End()

	spans := sink.traces[0]
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "serve.path" || spans[0].Parent != "" {
		t.Fatalf("root malformed: %+v", spans[0])
	}
	if spans[0].Attrs["gen"] != "3" {
		t.Fatalf("root attrs: %+v", spans[0].Attrs)
	}
	// Clock readings, in order: trace start, root start, probe start,
	// probe end, walk start, walk end, root end — one millisecond apart.
	// Under the fake clock the records are exact, nesting included.
	baseUS := base.UnixMicro()
	want := []struct {
		name           string
		startUS, durUS int64
	}{
		{"serve.path", baseUS + 1000, 5000},
		{"cache.probe", baseUS + 2000, 1000},
		{"walk", baseUS + 4000, 1000},
	}
	for i, w := range want {
		s := spans[i]
		if s.Name != w.name || s.StartUS != w.startUS || s.DurUS != w.durUS {
			t.Fatalf("span %d = %q start %d dur %d, want %q start %d dur %d",
				i, s.Name, s.StartUS, s.DurUS, w.name, w.startUS, w.durUS)
		}
	}
	for _, s := range spans[1:] {
		if s.Parent != spans[0].SpanID {
			t.Fatalf("span %q parent %q, want root %q", s.Name, s.Parent, spans[0].SpanID)
		}
		if s.TraceID != spans[0].TraceID {
			t.Fatalf("span %q trace %q, want %q", s.Name, s.TraceID, spans[0].TraceID)
		}
		if s.StartUS < spans[0].StartUS || s.StartUS+s.DurUS > spans[0].StartUS+spans[0].DurUS {
			t.Fatalf("span %q does not nest in root: %+v within %+v", s.Name, s, spans[0])
		}
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr, sink := newTestTracer(t, Options{SampleEvery: 1, Seed: 1})
	_, root := tr.StartRequest(context.Background(), "req", "")
	for i := 0; i < DefaultMaxSpans+6; i++ {
		root.Child(fmt.Sprintf("c%d", i)).End()
	}
	root.End()
	spans := sink.traces[0]
	if len(spans) != DefaultMaxSpans {
		t.Fatalf("recorded %d spans, want cap %d", len(spans), DefaultMaxSpans)
	}
	if spans[0].Attrs["droppedSpans"] != "7" {
		t.Fatalf("droppedSpans attr = %q, want 7", spans[0].Attrs["droppedSpans"])
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr, sink := newTestTracer(t, Options{SampleEvery: 1000000, Seed: 1})
	const inID = "4bf92f3577b34da6a3ce929d0e0e4736"
	hdr := FormatTraceparent(inID, "00f067aa0ba902b7", true)
	_, sp := tr.StartRequest(context.Background(), "req", hdr)
	if sp.TraceID() != inID {
		t.Fatalf("incoming trace ID not adopted: %s", sp.TraceID())
	}
	if !sp.Sampled() {
		t.Fatal("incoming sampled flag not honored")
	}
	out := sp.Traceparent()
	gotID, parent, sampled, ok := ParseTraceparent(out)
	if !ok || gotID != inID || parent != sp.ID() || !sampled {
		t.Fatalf("outbound header %q does not round-trip (ok=%v id=%s parent=%s)", out, ok, gotID, parent)
	}
	sp.End()
	if sink.count() != 1 {
		t.Fatal("upstream-sampled trace was not emitted")
	}

	// An unsampled upstream decision also wins over head sampling.
	tr2, sink2 := newTestTracer(t, Options{SampleEvery: 1, Seed: 1})
	_, sp2 := tr2.StartRequest(context.Background(), "req", FormatTraceparent(inID, "00f067aa0ba902b7", false))
	sp2.End()
	if sink2.count() != 0 {
		t.Fatal("upstream-unsampled trace was emitted anyway")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",       // missing flags
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // unknown version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",    // uppercase
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",    // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",    // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b-01",     // short parent
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",    // wrong separator
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",    // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-99", // trailing junk
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent accepted %q", h)
		}
	}
	id, parent, sampled, ok := ParseTraceparent(" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00 ")
	if !ok || sampled || id == "" || parent == "" {
		t.Fatalf("valid padded header rejected (ok=%v sampled=%v)", ok, sampled)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := JSONL{obs.NewJSONL(&buf)}
	tr := New(Options{SampleEvery: 1, Seed: 9, Sinks: []Sink{sink}})
	ctx, root := tr.StartRequest(context.Background(), "req", "")
	child := FromContext(ctx).Child("step")
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL emitted %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("bad JSONL line %q: %v", lines[1], err)
	}
	if rec.Name != "step" || rec.Parent == "" {
		t.Fatalf("JSONL child record %+v", rec)
	}
}

// TestJSONLSinkConcurrent: traces emitted at once from several goroutines
// each land as consecutive lines of the shared file.
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := JSONL{obs.NewJSONL(&buf)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("%d-%d", g, i)
				if err := sink.Trace([]SpanRecord{{TraceID: id, Name: "a"}, {TraceID: id, Name: "b"}, {TraceID: id, Name: "c"}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 600 {
		t.Fatalf("%d lines, want 600", len(lines))
	}
	for i := 0; i < len(lines); i += 3 {
		var recs [3]SpanRecord
		for k := range recs {
			if err := json.Unmarshal([]byte(lines[i+k]), &recs[k]); err != nil {
				t.Fatal(err)
			}
		}
		if recs[1].TraceID != recs[0].TraceID || recs[2].TraceID != recs[0].TraceID {
			t.Fatalf("lines %d-%d interleave traces: %+v", i, i+2, recs)
		}
	}
}

func TestChromeSinkSharesTimeline(t *testing.T) {
	var buf bytes.Buffer
	dst := obs.NewChrome(&buf)
	tr := New(Options{SampleEvery: 1, Seed: 3, Sinks: []Sink{NewChrome(dst)}})
	ctx, root := tr.StartRequest(context.Background(), "serve.dist", "")
	sp := FromContext(ctx).Child("lookup")
	sp.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not a trace-event document: %v", err)
	}
	events := doc.Events
	var slices, meta int
	for _, e := range events {
		if pid, _ := e["pid"].(float64); int(pid) != ServePID {
			continue
		}
		switch e["ph"] {
		case "X":
			slices++
			args, _ := e["args"].(map[string]any)
			if args["trace"] == "" || args["span"] == "" {
				t.Fatalf("slice lacks trace identity: %+v", e)
			}
		case "M":
			meta++
		}
	}
	if slices != 2 {
		t.Fatalf("chrome timeline has %d serving slices, want 2", slices)
	}
	if meta < 2 {
		t.Fatalf("chrome timeline has %d metadata events, want process+thread names", meta)
	}
}

func TestUnclosedSpansFlaggedAtEmit(t *testing.T) {
	tr, sink := newTestTracer(t, Options{SampleEvery: 1, Seed: 1})
	_, root := tr.StartRequest(context.Background(), "req", "")
	root.Child("leaked") // never ended
	root.End()
	spans := sink.traces[0]
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	leaked := spans[1]
	if leaked.Attrs["unclosed"] != "true" || leaked.DurUS < 1 {
		t.Fatalf("leaked span not flagged: %+v", leaked)
	}
}

func TestLogHandlerStampsTraceIDs(t *testing.T) {
	var buf bytes.Buffer
	base, err := obs.NewLogHandler(&buf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(LogHandler(base))
	tr, _ := newTestTracer(t, Options{SampleEvery: 1, Seed: 1})
	ctx, sp := tr.StartRequest(context.Background(), "req", "")

	logger.InfoContext(ctx, "slow query", "kind", "path")
	sp.End()
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("bad log line %q: %v", buf.String(), err)
	}
	if rec["trace_id"] != sp.TraceID() || rec["span_id"] != sp.ID() {
		t.Fatalf("log record missing trace identity: %v", rec)
	}

	buf.Reset()
	logger.Info("untraced")
	var rec2 map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec2); err != nil {
		t.Fatal(err)
	}
	if _, has := rec2["trace_id"]; has {
		t.Fatalf("untraced record carries a trace ID: %v", rec2)
	}
}

func TestConcurrentRequests(t *testing.T) {
	tr, sink := newTestTracer(t, Options{SampleEvery: 1, Seed: 11})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := tr.StartRequest(context.Background(), "req", "")
			for j := 0; j < 4; j++ {
				sp := FromContext(ctx).Child("step")
				sp.SetInt("j", int64(j))
				sp.End()
			}
			root.End()
		}()
	}
	wg.Wait()
	if got := sink.count(); got != 32 {
		t.Fatalf("emitted %d traces, want 32", got)
	}
	ids := map[string]bool{}
	for _, spans := range sink.traces {
		if len(spans) != 5 {
			t.Fatalf("trace has %d spans, want 5", len(spans))
		}
		if ids[spans[0].TraceID] {
			t.Fatalf("trace ID %s assigned twice", spans[0].TraceID)
		}
		ids[spans[0].TraceID] = true
	}
}

// FuzzParseTraceparent: no header panics the parser; whatever it accepts
// has lower-hex IDs of the W3C lengths, and re-encoding the parsed triple
// parses back to the same triple.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00 ",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, pid, sampled, ok := ParseTraceparent(h)
		if !ok {
			if tid != "" || pid != "" || sampled {
				t.Fatalf("rejected %q but returned (%q, %q, %v)", h, tid, pid, sampled)
			}
			return
		}
		if len(tid) != 32 || len(pid) != 16 || !isLowerHex(tid) || !isLowerHex(pid) {
			t.Fatalf("accepted %q with IDs (%q, %q)", h, tid, pid)
		}
		tid2, pid2, sampled2, ok2 := ParseTraceparent(FormatTraceparent(tid, pid, sampled))
		if !ok2 || tid2 != tid || pid2 != pid || sampled2 != sampled {
			t.Fatalf("%q parsed to (%q, %q, %v), re-encoded to (%q, %q, %v, ok=%v)", h, tid, pid, sampled, tid2, pid2, sampled2, ok2)
		}
	})
}
