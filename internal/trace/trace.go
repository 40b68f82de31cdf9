// Package trace is the request-scoped tracing layer for the serving path:
// cheap span trees with deterministic IDs, W3C traceparent propagation, and
// head-plus-tail sampling (a fixed 1-in-N head sample, with slow or failed
// requests always captured regardless of the head decision).
//
// The engine side of the repository already attributes every CONGEST round
// to an algorithm phase (internal/obs); this package gives the serving tier
// the same discipline at request granularity. A traced /path query through
// cmd/apspd produces a span tree — admission wait, cache probe, shard
// lookup, parent-walk materialization — that renders on the same Chrome
// trace_event timeline as the engine's phase tracks (the Chrome sink emits
// through obs.WriteChromeTrace into the same file, under its own PID).
//
// Span and trace IDs are deterministic: a tracer seeded with the same value
// assigns the same IDs to the same arrival sequence, so traces diff cleanly
// across runs and tests can assert on exact IDs. Incoming requests carrying
// a W3C traceparent header keep their trace ID (and their sampled flag is
// honored), which is what makes scatter-gather across a future apspd
// cluster inherit end-to-end propagation for free.
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/key"
)

// DefaultMaxSpans bounds the spans recorded per trace (a runaway batch
// cannot hold unbounded memory; overflow is counted and flagged on the
// root span).
const DefaultMaxSpans = 512

// Options configures a Tracer.
type Options struct {
	// SampleEvery head-samples one in every N root spans (1 = every
	// request, 0 = no head sampling — only tail capture emits).
	SampleEvery int
	// SlowThreshold tail-captures any trace whose root span takes at
	// least this long, regardless of the head decision (0 = off).
	SlowThreshold time.Duration
	// CaptureErrors tail-captures any trace whose spans recorded an
	// error, regardless of the head decision.
	CaptureErrors bool
	// Seed keys the deterministic ID sequence.
	Seed uint64
	// Sinks receive every emitted trace, in order.
	Sinks []Sink
	// Now overrides the wall clock (nil = time.Now). Tests inject a
	// deterministic clock here so span timings — and the sampling
	// decisions derived from them — are exact instead of slack-checked.
	Now func() time.Time
}

// SpanRecord is one finished span in export form — what sinks consume and
// what the JSONL trace file holds, one per line.
type SpanRecord struct {
	TraceID string            `json:"trace"`
	SpanID  string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"startUs"` // Unix microseconds
	DurUS   int64             `json:"durUs"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Err     string            `json:"err,omitempty"`
}

// Sink consumes emitted traces. Trace receives a finished trace's spans in
// creation order (the root span first); implementations must be safe for
// concurrent calls.
type Sink interface {
	Trace(spans []SpanRecord) error
	Close() error
}

// Tracer hands out request traces. A nil *Tracer is valid and disabled:
// every operation on it (and on the nil spans it returns) is a no-op, so
// call sites need no guards — that is the "tracing disabled costs nothing"
// fast path.
type Tracer struct {
	sampleEvery int
	slow        time.Duration
	capErrors   bool
	seed        uint64
	sinks       []Sink

	now func() time.Time

	seq     atomic.Uint64 // root spans started (head-sampling counter)
	emitted atomic.Uint64 // traces emitted to sinks
	sinkErr atomic.Pointer[error]
}

// New builds a Tracer. Returns nil (the disabled tracer) when the options
// can never emit anything — no sinks, or no sampling mode enabled.
func New(opts Options) *Tracer {
	if len(opts.Sinks) == 0 {
		return nil
	}
	if opts.SampleEvery <= 0 && opts.SlowThreshold <= 0 && !opts.CaptureErrors {
		return nil
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Tracer{
		sampleEvery: opts.SampleEvery,
		slow:        opts.SlowThreshold,
		capErrors:   opts.CaptureErrors,
		seed:        opts.Seed,
		sinks:       opts.Sinks,
		now:         now,
	}
}

// Emitted returns how many traces reached the sinks.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted.Load()
}

// Err returns the first sink error, if any (sinks misbehaving must not
// fail requests, so emit errors are latched here instead of returned on
// the hot path).
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	if p := t.sinkErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Close closes every sink and reports the first error (latched or from
// closing).
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.Err()
	for _, s := range t.sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// trace is the per-request span buffer shared by all spans of one tree.
type trace struct {
	tracer      *Tracer
	id          string // 32 hex chars
	headSampled bool
	start       time.Time
	startUnixUS int64

	mu      sync.Mutex
	spans   []*Span
	nspans  uint64 // total started, including dropped
	dropped int
	sawErr  bool
}

// Span is one timed operation in a request's tree. The zero of usefulness:
// a nil *Span ignores every method, so handlers trace unconditionally.
type Span struct {
	tr     *trace
	id     string
	parent string
	name   string
	start  time.Duration // offset from trace start
	dur    time.Duration // 0 until End
	root   bool
	attrs  []attrKV
	err    error
}

type attrKV struct{ k, v string }

// StartRequest opens a new trace with its root span. traceparent is the
// incoming W3C header value ("" for none): a valid header pins the trace
// ID and its sampled flag wins the head decision; otherwise the tracer
// assigns the next deterministic ID and head-samples 1-in-SampleEvery.
// The returned context carries the root span for FromContext and for log
// stamping. Ending the root span emits the trace (or discards it, per the
// sampling decision).
func (t *Tracer) StartRequest(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	seq := t.seq.Add(1)
	id, _, sampled, ok := ParseTraceparent(traceparent)
	if !ok {
		id = fmt.Sprintf("%016x%016x", splitmix64(t.seed+2*seq), splitmix64(t.seed+2*seq+1))
		sampled = t.sampleEvery > 0 && (seq-1)%uint64(t.sampleEvery) == 0
	}
	now := t.now()
	tr := &trace{
		tracer:      t,
		id:          id,
		headSampled: sampled,
		start:       now,
		startUnixUS: now.UnixMicro(),
	}
	sp := tr.newSpan(name, "")
	sp.root = true
	return ContextWith(ctx, sp), sp
}

// newSpan allocates the next span of the tree; span IDs hash the trace ID
// with the span's creation index, so they are deterministic per trace.
func (tr *trace) newSpan(name, parent string) *Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nspans++
	if len(tr.spans) >= DefaultMaxSpans {
		tr.dropped++
		return nil
	}
	sp := &Span{
		tr:     tr,
		id:     fmt.Sprintf("%016x", splitmix64(hash64(tr.id)^tr.nspans)),
		parent: parent,
		name:   name,
		start:  tr.tracer.now().Sub(tr.start),
	}
	tr.spans = append(tr.spans, sp)
	return sp
}

// Child opens a child span without threading a context — for tight loops
// (per-sub-batch segments) where allocating derived contexts would cost
// more than the span itself.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tr.newSpan(name, sp.id)
}

// Set attaches a string attribute.
func (sp *Span) Set(key, value string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, attrKV{key, value})
	sp.tr.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (sp *Span) SetInt(key string, value int64) {
	sp.Set(key, fmt.Sprintf("%d", value))
}

// Error records err on the span (nil is ignored) and marks the trace for
// tail capture when the tracer captures errors.
func (sp *Span) Error(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.err = err
	sp.tr.sawErr = true
	sp.tr.mu.Unlock()
}

// End closes the span. Ending the root span decides the trace's fate:
// head-sampled, slow (root duration ≥ SlowThreshold) and error traces are
// emitted to every sink; everything else is dropped. End is idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	tr := sp.tr
	tr.mu.Lock()
	if sp.dur == 0 {
		sp.dur = tr.tracer.now().Sub(tr.start) - sp.start
		if sp.dur <= 0 {
			sp.dur = time.Nanosecond
		}
	}
	if !sp.root {
		tr.mu.Unlock()
		return
	}
	t := tr.tracer
	emit := tr.headSampled ||
		(t.slow > 0 && sp.dur >= t.slow) ||
		(t.capErrors && tr.sawErr)
	if !emit {
		tr.mu.Unlock()
		return
	}
	if tr.dropped > 0 {
		sp.attrs = append(sp.attrs, attrKV{"droppedSpans", fmt.Sprintf("%d", tr.dropped)})
	}
	records := make([]SpanRecord, 0, len(tr.spans))
	for _, s := range tr.spans {
		records = append(records, s.record())
	}
	tr.mu.Unlock()

	t.emitted.Add(1)
	for _, sink := range t.sinks {
		if err := sink.Trace(records); err != nil {
			t.sinkErr.CompareAndSwap(nil, &err)
		}
	}
}

// record flattens a span (caller holds tr.mu). Unclosed spans at emit time
// (a handler that forgot End, or a span cut short by panic recovery) get
// the elapsed-so-far duration and an attrs marker rather than a zero.
func (sp *Span) record() SpanRecord {
	r := SpanRecord{
		TraceID: sp.tr.id,
		SpanID:  sp.id,
		Parent:  sp.parent,
		Name:    sp.name,
		StartUS: sp.tr.startUnixUS + sp.start.Microseconds(),
		DurUS:   sp.dur.Microseconds(),
	}
	if sp.dur == 0 {
		r.DurUS = (sp.tr.tracer.now().Sub(sp.tr.start) - sp.start).Microseconds()
		sp.attrs = append(sp.attrs, attrKV{"unclosed", "true"})
	}
	if r.DurUS < 1 {
		r.DurUS = 1
	}
	if len(sp.attrs) > 0 {
		r.Attrs = make(map[string]string, len(sp.attrs))
		for _, kv := range sp.attrs {
			r.Attrs[kv.k] = kv.v
		}
	}
	if sp.err != nil {
		r.Err = sp.err.Error()
	}
	return r
}

// TraceID returns the span's trace ID ("" for a nil span).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.tr.id
}

// ID returns the span's own ID ("" for a nil span).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.id
}

// Sampled reports the head decision — whether the trace will be emitted
// regardless of how the request turns out. The serving layer uses this to
// attach histogram exemplars only for traces an operator can actually look
// up.
func (sp *Span) Sampled() bool {
	if sp == nil {
		return false
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	return sp.tr.headSampled
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// ContextWith returns ctx carrying sp as the current span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span (nil when untraced).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// splitmix64 is the SplitMix64 mixer — cheap, stateless, and good enough
// for ID dispersion (not for cryptographic unguessability, which traces
// do not need). One increment-then-finalize step of the shared
// internal/key discipline; the pinned-stream caveat there applies — the
// deterministic-trace tests replay byte-for-byte only while these bits
// never move.
func splitmix64(x uint64) uint64 {
	return key.Mix64(x + key.PhiMix)
}

// hash64 is FNV-1a over a string (trace IDs), used to key span IDs.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
