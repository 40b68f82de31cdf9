package oracle

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The serving limits. They are constants, not options: no caller ever ran
// a server with other values. The cluster router holds a /batch to the
// same limits by reading it through ReadBatch.
const (
	// maxInflight query requests execute at once; a request that cannot
	// get a slot within admitWait is shed with 429.
	maxInflight = 256
	admitWait   = 5 * time.Millisecond
	// deadline bounds one admitted query request.
	deadline = 2 * time.Second
	// batchBudget caps the queries in one /batch, maxBatchBytes its body.
	batchBudget   = 4096
	maxBatchBytes = 4 << 20
	// The degradation ladder, as fractions of maxInflight occupancy: at
	// degradeCacheAt the path cache stops admitting entries (lookups still
	// hit); at degradeDistOnlyAt path queries are refused with 503 +
	// Retry-After so the cheap dist lookups keep their latency.
	degradeCacheAt    = 0.75
	degradeDistOnlyAt = 0.9
	// retryAfter is the Retry-After (seconds) stamped on every shed or
	// degraded refusal, sized to the admission queue's drain time.
	retryAfter = "1"
	// statusClientClosed mirrors nginx's 499: the client vanished before
	// the answer existed, so no bytes reach the wire — the status only
	// feeds metrics and logs.
	statusClientClosed = 499
)

// GenHeader and ShardHeader are stamped on every query response (and on
// /healthz): the generation that answered, and — when the server owns a
// shard of a larger cluster — its shard ID. The cluster router reads them
// to track backend generations and refuse mixed-generation batch answers.
const (
	GenHeader   = "X-Apsp-Generation"
	ShardHeader = "X-Apsp-Shard"
)

// Degradation ladder rungs, in increasing order of shed aggression.
const (
	degradeNone          = 0 // full service
	degradeNoCacheInsert = 1 // path-cache stops admitting entries
	degradeDistOnly      = 2 // path queries refused with 503
)

// degradeLevel reads the ladder rung from the current admission-slot
// occupancy. One channel-length read: cheap enough for every query.
func (s *Server) degradeLevel() int {
	occ := float64(len(s.sem)) / maxInflight
	switch {
	case occ >= degradeDistOnlyAt:
		return degradeDistOnly
	case occ >= degradeCacheAt:
		return degradeNoCacheInsert
	}
	return degradeNone
}

// Server serves distance-oracle queries over HTTP/JSON.
//
// Endpoints:
//
//	GET  /dist?src=S&dst=V    point distance (200 even when unreachable)
//	GET  /path?src=S&dst=V    materialized shortest path
//	POST /batch               {"queries":[{"kind":"dist|path","src":S,"dst":V},...]}
//	GET  /healthz             snapshot identity + readiness
//	GET  /metrics             Prometheus text (apspd_* instruments)
//	POST /admin/recompute     background recompute + atomic snapshot swap
//	GET  /debug/pprof/...     runtime profiles
//
// Admission control: at most maxInflight query requests execute at once;
// a request that cannot get a slot within admitWait is shed with 429.
// Every admitted query runs under a deadline-bounded context and reads the
// snapshot pointer exactly once — a /batch of 4096 lookups is answered
// entirely from one generation even if a swap lands mid-request.
type Server struct {
	Store *Store
	Cache *PathCache
	Met   *Metrics

	// Recompute, when set, is invoked by POST /admin/recompute (in a
	// background goroutine, single-flight) to build a replacement
	// snapshot; the server publishes whatever it returns. A failed
	// recompute does NOT take the server down: the previous generation
	// keeps serving ("stale" on /healthz) until a later recompute lands.
	Recompute func(ctx context.Context) (*Snapshot, error)
	// AfterPublish, when set, observes every published snapshot (the
	// daemon's autosave hook). Called synchronously after the swap; a slow
	// hook delays the Publish caller, never queries. For a snapshot built
	// by Recompute, /healthz keeps reporting Recomputing until the hook
	// returns: a cluster router reads the cleared flag as "the new
	// generation is saved".
	AfterPublish func(*Snapshot)
	// Log receives operational and per-query records (nil = silent). Wrap
	// the handler with trace.LogHandler so records carry trace IDs.
	Log *slog.Logger
	// Tracer records request span trees (nil = tracing off; every call
	// site tolerates the nil tracer at zero cost).
	Tracer *trace.Tracer
	// SlowQuery is the slow-query log threshold: any query at least this
	// slow is logged at WARN with its trace ID (0 = off).
	SlowQuery time.Duration
	// LogEvery debug-logs one in every N completed queries (0 = off) —
	// a sampled request log that stays readable under load.
	LogEvery int
	// Progress, when set, observes recompute runs for /debug/live (wire
	// the same Progress into the recompute spec's engine observer).
	Progress *congest.Progress
	// ShardID, when non-empty, names the source shard this server owns
	// (apspd -shard k/N). It is stamped on every response as ShardHeader
	// and reported on /healthz, so a cluster router can verify it wired
	// each backend to the shard the map says it owns.
	ShardID string

	initOnce    sync.Once
	sem         chan struct{}
	recomputing atomic.Bool
	logSeq      atomic.Uint64
	staleErr    atomic.Pointer[string] // last recompute error; nil = fresh
}

func (s *Server) init() {
	s.initOnce.Do(func() {
		if s.Met == nil {
			s.Met = NewMetrics()
		}
		s.sem = make(chan struct{}, maxInflight)
	})
}

// logAt emits one record when a logger is configured; the context carries
// the current span, so a trace.LogHandler-wrapped logger stamps trace IDs.
func (s *Server) logAt(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	if s.Log != nil {
		s.Log.LogAttrs(ctx, level, msg, attrs...)
	}
}

// Publish makes snap the serving snapshot and updates the swap metrics.
// Safe to call while queries are in flight: requests that already loaded
// the old snapshot finish against it.
func (s *Server) Publish(snap *Snapshot) uint64 {
	s.init()
	gen := s.Store.Publish(snap)
	s.Met.Generation.Set(float64(gen))
	s.Met.Swaps.Inc()
	s.Met.SetPhys(snap.Phys())
	s.staleErr.Store(nil) // a fresh generation clears the stale flag
	s.logAt(context.Background(), slog.LevelInfo, "published snapshot",
		slog.Uint64("gen", gen), slog.String("alg", snap.Alg()),
		slog.Int("n", snap.N()), slog.Int("k", snap.K()))
	if s.AfterPublish != nil {
		s.AfterPublish(snap)
	}
	return gen
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	s.init()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist", s.query("dist", s.handleOne("dist")))
	mux.HandleFunc("GET /path", s.query("path", s.handleOne("path")))
	mux.HandleFunc("POST /batch", s.query("batch", s.handleBatch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/live", s.handleLive)
	mux.HandleFunc("POST /admin/recompute", s.handleRecompute)
	// pprof needs explicit wiring: the daemon serves its own mux, not
	// http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// query wraps a query handler with tracing, admission control, the
// per-request deadline, and the per-kind latency/throughput instruments.
//
// Tracing: the root span ("serve.<kind>") opens before admission, adopts an
// incoming W3C traceparent when present, and the server-side header is
// echoed on the response so callers learn their trace ID. Head-sampled
// queries additionally attach their trace ID as an exemplar on the latency
// histogram bucket they land in — the metrics-to-trace join.
func (s *Server) query(kind string, h func(http.ResponseWriter, *http.Request, *Snapshot) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, root := s.Tracer.StartRequest(r.Context(), "serve."+kind, r.Header.Get(trace.TraceparentHeader))
		if root != nil {
			w.Header().Set(trace.TraceparentHeader, root.Traceparent())
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// No free slot: wait up to admitWait before shedding. The
			// admit span only exists on this contended path — uncontended
			// admission is one channel send and leaves no span.
			admit := root.Child("admit")
			t := time.NewTimer(admitWait)
			select {
			case s.sem <- struct{}{}:
				t.Stop()
				admit.End()
			case <-t.C:
				s.Met.Shed.Inc()
				admit.End()
				root.Error(errors.New("shed: admission queue full"))
				root.End()
				WriteRetry(w, http.StatusTooManyRequests, "overloaded, retry later")
				return
			case <-r.Context().Done():
				t.Stop()
				s.Met.Shed.Inc()
				admit.End()
				root.Error(errors.New("shed: client gave up in admission queue"))
				root.End()
				WriteRetry(w, http.StatusTooManyRequests, "client gave up in admission queue")
				return
			}
		}
		s.Met.Inflight.Add(1)
		s.Met.DegradeLevel.Set(float64(s.degradeLevel()))
		start := time.Now()
		status := http.StatusOK
		defer func() {
			<-s.sem
			s.Met.Inflight.Add(-1)
			dur := time.Since(start)
			qc, lat := s.Met.Query(kind)
			qc.Inc()
			if root != nil && root.Sampled() {
				lat.ObserveExemplar(dur.Seconds(), obs.L("trace_id", root.TraceID()))
			} else {
				lat.Observe(dur.Seconds())
			}
			root.SetInt("http.status", int64(status))
			root.End()
			s.logQuery(ctx, kind, status, dur)
		}()

		dctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		snap := s.Store.Current() // the request's one and only pointer read
		if snap == nil {
			s.Met.Errors.Inc()
			root.Error(errors.New("no snapshot published yet"))
			status = WriteErr(w, http.StatusServiceUnavailable, "no snapshot published yet")
			return
		}
		root.SetInt("gen", int64(snap.Gen()))
		s.stamp(w, snap) // before the handler writes: on every status
		status = h(w, r.WithContext(dctx), snap)
		if status >= 400 {
			s.Met.Errors.Inc()
			root.Error(fmt.Errorf("HTTP %d", status))
		}
	}
}

// stamp sets the generation and shard headers, the cluster contract: a
// router learns which generation answered without parsing the body.
func (s *Server) stamp(w http.ResponseWriter, snap *Snapshot) {
	w.Header().Set(GenHeader, strconv.FormatUint(snap.Gen(), 10))
	if s.ShardID != "" {
		w.Header().Set(ShardHeader, s.ShardID)
	}
}

// logQuery is the per-query log policy: slow queries at WARN, server
// faults at ERROR, and a 1-in-LogEvery sample at DEBUG. The context
// carries the root span, so every record lands with its trace ID.
func (s *Server) logQuery(ctx context.Context, kind string, status int, dur time.Duration) {
	if s.Log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("kind", kind), slog.Int("status", status), slog.Duration("dur", dur),
	}
	switch {
	case s.SlowQuery > 0 && dur >= s.SlowQuery:
		s.logAt(ctx, slog.LevelWarn, "slow query", attrs...)
	case status >= 500:
		s.logAt(ctx, slog.LevelError, "query failed", attrs...)
	case s.LogEvery > 0 && (s.logSeq.Add(1)-1)%uint64(s.LogEvery) == 0:
		s.logAt(ctx, slog.LevelDebug, "query", attrs...)
	}
}

// handleOne serves GET /dist and GET /path: the query string's Query,
// answered by the path every /batch entry takes and encoded in the
// endpoint's own shape.
func (s *Server) handleOne(kind string) func(http.ResponseWriter, *http.Request, *Snapshot) int {
	return func(w http.ResponseWriter, r *http.Request, snap *Snapshot) int {
		q, status := ReadQuery(w, r, kind)
		if status != 0 {
			return status
		}
		a := s.answer(r.Context(), snap, q)
		switch {
		case a.Status != 0:
			return a.WriteError(w)
		case kind == "path":
			return WriteJSON(w, http.StatusOK, pathResp{Src: a.Src, Dst: a.Dst, Dist: *a.Dist, Hops: len(a.Path) - 1, Path: a.Path, Gen: snap.Gen()})
		}
		return WriteJSON(w, http.StatusOK, distResp{Src: a.Src, Dst: a.Dst, Reachable: a.Reachable, Dist: a.Dist, Gen: snap.Gen()})
	}
}

// answer is the one answer path: GET /dist, GET /path and every /batch
// entry are decided here — which source row, which target, whether the
// snapshot has paths, whether load still allows a walk. When ctx carries
// a span the lookup and the path walk get children (/batch passes a
// spanless context: its segment is the tracing granularity).
func (s *Server) answer(ctx context.Context, snap *Snapshot, q Query) Answer {
	row, ok := snap.Row(q.Src)
	if !ok {
		return q.Fail(http.StatusNotFound, "source %d not in snapshot (k=%d of n=%d)", q.Src, snap.K(), snap.N())
	}
	if q.Dst < 0 || q.Dst >= snap.N() {
		return q.Fail(http.StatusBadRequest, "dst %d outside graph (n=%d)", q.Dst, snap.N())
	}
	a := Answer{Src: q.Src, Dst: q.Dst}
	switch q.Kind {
	case "", "dist":
		sp := trace.FromContext(ctx).Child("lookup")
		d := snap.DistAt(row, q.Dst)
		sp.End()
		if d < graph.Inf {
			a.Reachable, a.Dist = true, &d
		}
	case "path":
		if !snap.HasPaths() {
			return q.Fail(http.StatusNotImplemented, "%s snapshots record no parent pointers; only dist queries are served", snap.Alg())
		}
		if s.degradeLevel() >= degradeDistOnly {
			s.Met.DegradedPaths.Inc()
			return q.Fail(http.StatusServiceUnavailable, "degraded to dist-only under load, retry later")
		}
		path, err := s.lookupPath(ctx, snap, row, q.Dst)
		if err != nil {
			return q.Fail(pathStatus(err), "%v", err)
		}
		d := snap.DistAt(row, q.Dst)
		a.Reachable, a.Dist, a.Path = true, &d, path
	default:
		return q.Fail(http.StatusBadRequest, "unknown query kind %q", q.Kind)
	}
	return a
}

// lookupPath consults the LRU before walking; walker errors are cached
// alongside successes (both are deterministic for a given generation).
// When the context carries a span, the cache probe and the parent walk
// each get a child.
func (s *Server) lookupPath(ctx context.Context, snap *Snapshot, row, dst int) ([]int, error) {
	parent := trace.FromContext(ctx)
	if s.Cache != nil {
		probe := parent.Child("cache.probe")
		path, err, ok := s.Cache.Get(snap.Gen(), row, dst)
		if probe != nil {
			probe.Set("hit", strconv.FormatBool(ok))
			probe.End()
		}
		if ok {
			return path, err
		}
	}
	walk := parent.Child("walk")
	path, err := snap.Path(row, dst)
	walk.Error(err)
	if len(path) > 0 {
		walk.SetInt("hops", int64(len(path)-1))
	}
	walk.End()
	// Under load (ladder rung 1+) the cache stops admitting entries:
	// inserts churn the LRU lock and evict the hot set exactly when the
	// server can least afford it. Hits above still serve.
	if s.Cache != nil && s.degradeLevel() < degradeNoCacheInsert {
		s.Cache.Put(snap.Gen(), row, dst, path, err)
	}
	return path, err
}

// pathStatus maps the shared walker's typed errors onto HTTP statuses:
// caller mistakes are 4xx, snapshot corruption is 500 (the walker is a
// validator — a corrupt parent matrix must read as a server fault, not as
// a plausible-looking path).
func pathStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrPathSourceRange), errors.Is(err, core.ErrPathNodeRange):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrPathUnreachable):
		return http.StatusNotFound
	default: // cycle, broken chain, bad arc, inconsistent, malformed
		return http.StatusInternalServerError
	}
}

// BatchPartialError reports a /batch cut off after Done of Total queries.
// Cause distinguishes the per-request deadline (context.DeadlineExceeded,
// answered 504) from the client hanging up (context.Canceled, nothing to
// answer — the 499 status only feeds metrics). The type is exported so
// in-process callers (experiments, tests) can assert on partial progress
// instead of string-matching.
type BatchPartialError struct {
	Done, Total int
	Cause       error
}

func (e *BatchPartialError) Error() string {
	return fmt.Sprintf("batch aborted after %d of %d queries: %v", e.Done, e.Total, e.Cause)
}

func (e *BatchPartialError) Unwrap() error { return e.Cause }

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, snap *Snapshot) int {
	queries, status := ReadBatch(w, r)
	if status != 0 {
		return status
	}
	ctx := r.Context()
	sp := trace.FromContext(ctx)
	sp.SetInt("queries", int64(len(queries)))
	// Individual queries run without spans: a 10k-query batch traced per
	// query would blow the span budget and drown the tree. The 256-query
	// segment is the tracing granularity.
	qctx := trace.ContextWith(ctx, nil)
	answers := make([]Answer, len(queries))
	var seg *trace.Span
	for qi, q := range queries {
		// The deadline AND the client's own context are checked between
		// queries, so a huge path batch neither holds its admission slot
		// past the request budget nor keeps burning CPU for a client that
		// already hung up.
		if qi&255 == 0 {
			seg.End()
			if err := ctx.Err(); err != nil {
				seg = nil
				perr := &BatchPartialError{Done: qi, Total: len(queries), Cause: err}
				if errors.Is(err, context.DeadlineExceeded) {
					s.Met.DeadlineExceeded.Inc()
					return WriteErr(w, http.StatusGatewayTimeout, "%v", perr)
				}
				// Client disconnect: the write below is a no-op on a dead
				// connection; the status records the abandonment.
				return WriteErr(w, statusClientClosed, "%v", perr)
			}
			seg = sp.Child("batch.segment")
			seg.SetInt("offset", int64(qi))
		}
		answers[qi] = s.answer(qctx, snap, q)
	}
	seg.End()
	body := AppendResults(make([]byte, 0, 96*len(answers)+32), snap.Gen(), len(answers), func(b []byte, i int) []byte {
		return AppendAnswer(b, answers[i])
	})
	return WriteBody(w, http.StatusOK, body)
}

// Health is the /healthz body — the one declaration the server encodes
// and every reader (the router's probes and rollout polls, apsprouter's
// map derivation, tests) decodes into. Status "stale" means the snapshot
// is valid and serving but the most recent recompute failed — degraded,
// not down; orchestrators should alert, not restart.
type Health struct {
	Status      string `json:"status"` // "ok" | "loading" | "stale"
	Gen         uint64 `json:"gen"`
	Alg         string `json:"alg,omitempty"`
	N           int    `json:"n,omitempty"`
	K           int    `json:"k,omitempty"`
	Shard       string `json:"shard,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	HasPaths    bool   `json:"has_paths"`
	// Recomputing is true from an accepted POST /admin/recompute until
	// its run is over: a failed recompute, or a publish whose
	// AfterPublish hook has returned. Gen advances at the publish, so
	// Gen new and Recomputing still true means the new generation serves
	// but its autosave has not finished.
	Recomputing  bool   `json:"recomputing"`
	DegradeLevel int    `json:"degrade_level,omitempty"`
	LastError    string `json:"last_recompute_error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.init()
	snap := s.Store.Current()
	if snap == nil {
		WriteJSON(w, http.StatusServiceUnavailable, Health{Status: "loading", Recomputing: s.recomputing.Load()})
		return
	}
	s.stamp(w, snap)
	resp := Health{
		Status: "ok", Gen: snap.Gen(), Alg: snap.Alg(), N: snap.N(), K: snap.K(),
		Shard:       s.ShardID,
		Fingerprint: fmt.Sprintf("%016x", snap.Fingerprint()),
		HasPaths:    snap.HasPaths(), Recomputing: s.recomputing.Load(),
		DegradeLevel: s.degradeLevel(),
	}
	if msg := s.staleErr.Load(); msg != nil {
		resp.Status = "stale"
		resp.LastError = *msg
	}
	// Stale is still 200: the answers served are correct, just older than
	// requested. Only a missing snapshot is unready.
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.init()
	s.Met.SyncCache(s.Cache)
	var err error
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		// OpenMetrics carries the trace-ID exemplars; classic scrapers get
		// the plain text format unchanged.
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		err = s.Met.WriteOpenMetrics(w)
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		err = s.Met.Write(w)
	}
	if err != nil {
		s.logAt(r.Context(), slog.LevelWarn, "metrics write", slog.Any("err", err))
	}
}

// handleRecompute starts a background rebuild and answers 202; a second
// request while one is running answers 409 (single-flight). The swap
// itself is Publish — one atomic pointer store, zero dropped queries.
func (s *Server) handleRecompute(w http.ResponseWriter, r *http.Request) {
	s.init()
	if s.Recompute == nil {
		WriteErr(w, http.StatusNotImplemented, "server has no recompute source (started from a static load)")
		return
	}
	if !s.recomputing.CompareAndSwap(false, true) {
		WriteErr(w, http.StatusConflict, "recompute already running")
		return
	}
	// The recompute trace outlives the HTTP request: its root span is born
	// from the request's traceparent (so a caller can follow its own
	// trigger into the rebuild) but runs on a background context.
	rctx, sp := s.Tracer.StartRequest(context.Background(), "recompute", r.Header.Get(trace.TraceparentHeader))
	if sp != nil {
		w.Header().Set(trace.TraceparentHeader, sp.Traceparent())
	}
	go func() {
		defer s.recomputing.Store(false)
		if s.Progress != nil {
			s.Progress.Reset()
		}
		start := time.Now()
		snap, err := s.Recompute(rctx)
		if s.Progress != nil {
			s.Progress.Done()
		}
		if err != nil {
			msg := err.Error()
			s.staleErr.Store(&msg)
			s.Met.RecomputeFails.Inc()
			sp.Error(err)
			sp.End()
			var gen uint64
			if cur := s.Store.Current(); cur != nil {
				gen = cur.Gen()
			}
			s.logAt(rctx, slog.LevelError, "recompute failed, serving stale generation",
				slog.Any("err", err), slog.Uint64("gen", gen))
			return
		}
		gen := s.Publish(snap)
		sp.SetInt("gen", int64(gen))
		sp.End()
		s.logAt(rctx, slog.LevelInfo, "recompute finished",
			slog.Uint64("gen", gen), slog.Duration("dur", time.Since(start)))
	}()
	WriteJSON(w, http.StatusAccepted, map[string]string{"status": "recompute started"})
}
