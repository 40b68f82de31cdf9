package oracle

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/congest"
)

// liveEvent is one /debug/live heartbeat: serving-side throughput plus,
// during a recompute, the engine's live progress and a rounds-based ETA.
type liveEvent struct {
	Gen      uint64 `json:"gen"`
	Alg      string `json:"alg,omitempty"`
	Inflight int64  `json:"inflight"`
	// Queries is the cumulative finished-query count; QPS the rate since
	// the previous event (0 on the first).
	Queries int64   `json:"queries"`
	QPS     float64 `json:"qps"`
	Shed    int64   `json:"shed"`
	Errors  int64   `json:"errors"`
	// Recomputing mirrors /healthz; Progress is the engine heartbeat while
	// a recompute runs (requires Server.Progress to be wired).
	Recomputing bool                      `json:"recomputing"`
	Progress    *congest.ProgressSnapshot `json:"progress,omitempty"`
	// EtaNS estimates the remaining recompute wall time by scaling elapsed
	// time by rounds remaining, using the serving snapshot's round count as
	// the total (a recompute of the same graph replays roughly the same
	// rounds). 0 when no estimate is possible.
	EtaNS int64 `json:"etaNs,omitempty"`
}

// snap builds one heartbeat against the previous event (nil for the first).
func (s *Server) liveSnap(prev *liveEvent, dt time.Duration) liveEvent {
	ev := liveEvent{
		Inflight:    int64(s.Met.Inflight.Value()),
		Queries:     int64(s.Met.QueriesTotal()),
		Shed:        int64(s.Met.Shed.Value()),
		Errors:      int64(s.Met.Errors.Value()),
		Recomputing: s.recomputing.Load(),
	}
	snap := s.Store.Current()
	if snap != nil {
		ev.Gen = snap.Gen()
		ev.Alg = snap.Alg()
	}
	if prev != nil && dt > 0 {
		ev.QPS = float64(ev.Queries-prev.Queries) / dt.Seconds()
	}
	if s.Progress != nil {
		ps := s.Progress.Snapshot()
		ev.Progress = &ps
		if ps.Running && ps.Rounds > 0 && snap != nil {
			if total := int64(snap.Stats().Rounds); total > ps.Rounds {
				ev.EtaNS = int64(float64(ps.Elapsed) * float64(total-ps.Rounds) / float64(ps.Rounds))
			}
		}
	}
	return ev
}

// handleLive streams liveEvent heartbeats as server-sent events. Query
// parameters: interval (Go duration, default 1s, floor 50ms) and n (stop
// after that many events; 0 = stream until the client disconnects).
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	s.init()
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			WriteErr(w, http.StatusBadRequest, "bad interval %q", v)
			return
		}
		if d < 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		interval = d
	}
	limit := 0
	if v := r.URL.Query().Get("n"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &limit); err != nil || limit < 0 {
			WriteErr(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev liveEvent) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	prev := s.liveSnap(nil, 0)
	prevT := time.Now()
	if !send(prev) {
		return
	}
	sent := 1
	if limit > 0 && sent >= limit {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case now := <-tick.C:
			ev := s.liveSnap(&prev, now.Sub(prevT))
			prev, prevT = ev, now
			if !send(ev) {
				return
			}
			sent++
			if limit > 0 && sent >= limit {
				return
			}
		}
	}
}
