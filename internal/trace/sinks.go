package trace

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// JSONL streams every emitted span as one line of an obs.JSONL file —
// the engine's event-trace convention, keyed by trace ID instead of
// phase. A trace's spans are consecutive lines.
type JSONL struct{ *obs.JSONL }

// Trace implements Sink.
func (j JSONL) Trace(spans []SpanRecord) error {
	vs := make([]any, len(spans))
	for i := range spans {
		vs[i] = &spans[i]
	}
	return j.Encode(vs...)
}

// ServePID is the trace_event process ID for serving-request spans —
// distinct from obs.EnginePID so both render side by side in one file.
const ServePID = 2

// chromeTracks bounds the serving-side thread tracks: each trace's spans
// land on one track, traces rotate across this many (concurrent requests
// on one track would overlap illegibly).
const chromeTracks = 24

// Chrome converts emitted traces to Chrome trace_event slices and hands
// them to an obs.Chrome sink — the engine's encoder — so serving spans
// (PID 2) and engine phase rounds (PID 1) share one timeline. The target
// sink's Close (not this sink's) writes the file; close the Tracer before
// the obs side.
type Chrome struct {
	dst  *obs.Chrome
	once sync.Once
	seq  uint64
	mu   sync.Mutex
}

// NewChrome wraps the destination obs.Chrome sink.
func NewChrome(dst *obs.Chrome) *Chrome { return &Chrome{dst: dst} }

// Trace implements Sink.
func (c *Chrome) Trace(spans []SpanRecord) error {
	c.once.Do(func() {
		meta := make([]obs.ChromeEvent, 0, chromeTracks+1)
		meta = append(meta, obs.ChromeEvent{
			Name: "process_name", Ph: "M", PID: ServePID,
			Args: map[string]any{"name": "apspd serving"},
		})
		for tid := 1; tid <= chromeTracks; tid++ {
			meta = append(meta, obs.ChromeEvent{
				Name: "thread_name", Ph: "M", PID: ServePID, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("requests %02d", tid)},
			})
		}
		c.dst.AddEvents(meta...)
	})
	c.mu.Lock()
	c.seq++
	tid := int(c.seq%chromeTracks) + 1
	c.mu.Unlock()

	out := make([]obs.ChromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"trace": s.TraceID, "span": s.SpanID}
		for k, v := range s.Attrs {
			args[k] = v
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		out = append(out, obs.ChromeEvent{
			Name: s.Name, Ph: "X",
			TS: s.StartUS, Dur: s.DurUS,
			PID: ServePID, TID: tid,
			Args: args,
		})
	}
	c.dst.AddEvents(out...)
	return nil
}

// Close implements Sink; the destination obs.Chrome owns the file.
func (c *Chrome) Close() error { return nil }
