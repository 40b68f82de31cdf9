package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (a simulation, a rollout, a request) share Op; Parent is the span that
// caused this one. Times are nanoseconds since the recorder was made.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Tag    string             `json:"tag,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef names a span as the cause of further spans: in a context within
// one process, in the spanHeader across an HTTP hop.
type spanRef struct{ Op, ID int64 }

// spanHeader carries "op.id" of the calling span to the next process
// boundary. Only the harness's own wrappers write and read it.
const spanHeader = "X-Bench-Span"

type refKey struct{}

func withRef(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, refKey{}, ref)
}

func refFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(refKey{}).(spanRef)
	return ref, ok
}

// recorder keeps spans in memory until the run ends. A nil recorder, and
// one that is switched off, records nothing, so the same wrappers serve
// the untraced half of a traced run.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64
	// curOp and curID name the operation in flight for callers that have
	// no context to carry it (engine observers, rollout goroutines). The
	// workloads that use them run one operation at a time.
	curOp, curID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) current() spanRef {
	if r == nil {
		return spanRef{}
	}
	return spanRef{Op: r.curOp.Load(), ID: r.curID.Load()}
}

func (r *recorder) setCurrent(ref spanRef) {
	if r == nil {
		return
	}
	r.curOp.Store(ref.Op)
	r.curID.Store(ref.ID)
}

// openSpan is a span that has started; the zero value ends as a no-op.
type openSpan struct {
	rec *recorder
	s   span
}

// start opens a span caused by parent (zero ID for a root).
func (r *recorder) start(name string, parent spanRef) openSpan {
	if !r.enabled() {
		return openSpan{}
	}
	return openSpan{rec: r, s: span{
		ID: r.next.Add(1), Parent: parent.ID, Op: parent.Op, Name: name,
		Start: int64(time.Since(r.epoch)),
	}}
}

// startAt opens a span whose clock started earlier, at t (an open-loop
// request is timed from when it was due, not from when it was sent).
func (r *recorder) startAt(name string, parent spanRef, t time.Time) openSpan {
	o := r.start(name, parent)
	if o.rec != nil {
		o.s.Start = int64(t.Sub(r.epoch))
	}
	return o
}

func (o *openSpan) ref() spanRef { return spanRef{Op: o.s.Op, ID: o.s.ID} }

func (o *openSpan) tag(t string) { o.s.Tag = t }

func (o *openSpan) attr(k string, v float64) {
	if o.rec == nil {
		return
	}
	if o.s.Attrs == nil {
		o.s.Attrs = map[string]float64{}
	}
	o.s.Attrs[k] = v
}

func (o *openSpan) end() { o.endAt(time.Now()) }

// endAt closes the span at t, for a boundary the caller saw pass earlier.
func (o *openSpan) endAt(t time.Time) {
	if o.rec == nil {
		return
	}
	o.s.End = int64(t.Sub(o.rec.epoch))
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, o.s)
	o.rec.mu.Unlock()
	o.rec = nil
}

// all returns the recorded spans ordered by start time.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// handler wraps next in a span named name, caused by the span the request
// header names; handlers below it find the span in the request context.
func (r *recorder) handler(name string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		var parent spanRef
		if _, err := fmt.Sscanf(req.Header.Get(spanHeader), "%d.%d", &parent.Op, &parent.ID); err != nil {
			parent = spanRef{} // a request from outside any traced operation
		}
		sp := r.start(name, parent)
		sp.tag(req.URL.Path)
		next.ServeHTTP(w, req.WithContext(withRef(req.Context(), sp.ref())))
		sp.end()
	})
}

// spanTransport records one span per HTTP exchange, from the request
// leaving until its body has been read and closed, and names itself to the
// far side in spanHeader. A request whose context carries no span is
// attributed to the operation in flight under orphanName: the router's
// rollout calls its backends on a background context.
type spanTransport struct {
	rec        *recorder
	name       string
	orphanName string
	inner      http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.enabled() {
		return t.inner.RoundTrip(req)
	}
	name := t.name
	parent, ok := refFrom(req.Context())
	if !ok {
		name, parent = t.orphanName, t.rec.current()
	}
	sp := t.rec.start(name, parent)
	sp.tag(req.URL.Path)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, fmt.Sprintf("%d.%d", sp.s.Op, sp.s.ID))
	resp, err := t.inner.RoundTrip(out)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp openSpan
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.sp.end()
	return err
}

// interval is a half-open stretch of recorder time.
type interval struct{ a, b int64 }

// cover merges the spans' intervals into disjoint ascending ones.
func cover(spans []span) []interval {
	ivs := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.End > s.Start {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	out := ivs[:0]
	for _, v := range ivs {
		if n := len(out); n > 0 && v.a <= out[n-1].b {
			out[n-1].b = max(out[n-1].b, v.b)
			continue
		}
		out = append(out, v)
	}
	return out
}

// within cuts the disjoint ascending intervals xs down to the parts that
// lie inside the disjoint ascending intervals ys.
func within(xs, ys []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(xs) && j < len(ys); {
		a, b := max(xs[i].a, ys[j].a), min(xs[i].b, ys[j].b)
		if b > a {
			out = append(out, interval{a, b})
		}
		if xs[i].b < ys[j].b {
			i++
		} else {
			j++
		}
	}
	return out
}

func length(ivs []interval) int64 {
	var total int64
	for _, v := range ivs {
		total += v.b - v.a
	}
	return total
}

// unionLen is the length of the union of the spans' intervals inside
// [lo, hi]: the part of a parent that its children cover, parallel
// children counted once.
func unionLen(spans []span, lo, hi int64) int64 {
	return length(within(cover(spans), []interval{{lo, hi}}))
}

// levelSelf attributes one operation's root span to the named levels of
// its span tree, outermost first: level i gets the time level i covers and
// level i+1 does not. Parallel spans of a level count by their union, and
// a level counts only where the level above it was running (a hedged
// call's loser may outlive the handler that made it). The parts therefore
// sum to the root's duration exactly.
func levelSelf(root span, spans []span, levels []string) []int64 {
	covered := make([]int64, 0, len(levels)+1)
	outer := []interval{{root.Start, root.End}}
	parents := map[int64]bool{root.ID: true}
	covered = append(covered, length(outer))
	for _, name := range levels {
		var level []span
		ids := map[int64]bool{}
		for _, s := range spans {
			if parents[s.Parent] && s.Name == name {
				level = append(level, s)
				ids[s.ID] = true
			}
		}
		outer, parents = within(cover(level), outer), ids
		covered = append(covered, length(outer))
	}
	self := make([]int64, len(covered))
	for i := range covered {
		self[i] = covered[i]
		if i+1 < len(covered) {
			self[i] -= covered[i+1]
		}
	}
	return self
}
