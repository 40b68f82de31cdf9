package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/oracle"
)

// Defaults for the Router knobs (applied when the field is zero).
const (
	DefaultRolloutPoll    = 50 * time.Millisecond
	DefaultRolloutTimeout = 5 * time.Minute
	// deadline bounds one routed request end to end, scatter included.
	deadline = 5 * time.Second
)

// Options configures a Router.
type Options struct {
	// Map is the validated cluster layout. Required.
	Map *Map
	// Inner is the physical transport replicas are reached through (nil =
	// http.DefaultTransport). Tests inject in-process or fault-wrapped
	// transports here.
	Inner http.RoundTripper
	// AttemptTimeout, MaxAttempts, HedgeDelay, and Seed tune the per-shard
	// internal/client instances (zero = that package's defaults; hedging
	// is always on for queries and always off for admin calls — the
	// router never hedges a mutation).
	AttemptTimeout time.Duration
	MaxAttempts    int
	HedgeDelay     time.Duration
	Seed           int64
	// RolloutPoll and RolloutTimeout pace the shard-by-shard recompute
	// drain: after triggering a replica the router polls its /healthz every
	// RolloutPoll until the generation advances, and once every replica
	// has published, polls each again until its recompute flag clears
	// (the new generation is saved). Either wait gives up, aborting the
	// rollout, after RolloutTimeout per replica.
	RolloutPoll    time.Duration
	RolloutTimeout time.Duration
	// Log receives operational records (nil = silent).
	Log *slog.Logger
}

// shardClient is one shard's view from the router: the logical endpoint
// its clients hedge under, and the last generation any of its replicas
// reported. Two clients per shard because query traffic hedges and
// retries freely (idempotent reads) while admin traffic must do neither —
// a hedged /admin/recompute could double-trigger a rebuild. The admin
// client also skips the replica rotation: mutations address each replica
// by its physical base URL, exactly once.
type shardClient struct {
	shard *Shard
	base  string // logical base URL, e.g. "http://apsp-shard-0"
	query *client.Client
	admin *client.Client
	// lastGen is the highest generation seen in any response header from
	// this shard; 0 until the first contact.
	lastGen atomic.Uint64
}

// Router is the scatter-gather front-end over a shard map: it serves the
// apspd query surface by forwarding each query to the backend owning its
// source, splitting /batch bodies by shard, and refusing to assemble an
// answer from mixed generations. The router holds no graph state — only
// the map and per-shard reliability machinery — so any number of routers
// can front the same backends.
type Router struct {
	opts   Options
	met    *Metrics
	shards []*shardClient
	log    *slog.Logger

	rolling atomic.Bool
	// synced remembers the client-stat totals already pushed into the
	// monotone counters (set-via-add on scrape).
	syncMu sync.Mutex
	synced client.Stats
}

// NewRouter validates the map and builds the per-shard clients.
func NewRouter(opts Options) (*Router, error) {
	if opts.Map == nil {
		return nil, fmt.Errorf("cluster: router needs a shard map")
	}
	if err := opts.Map.Validate(); err != nil {
		return nil, err
	}
	if opts.RolloutPoll <= 0 {
		opts.RolloutPoll = DefaultRolloutPoll
	}
	if opts.RolloutTimeout <= 0 {
		opts.RolloutTimeout = DefaultRolloutTimeout
	}
	r := &Router{opts: opts, met: newMetrics(len(opts.Map.Shards)), log: opts.Log}
	for i := range opts.Map.Shards {
		s := &opts.Map.Shards[i]
		rt, err := newReplicaTransport(s.Replicas, opts.Inner)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", s.ID, err)
		}
		r.shards = append(r.shards, &shardClient{
			shard: s,
			base:  fmt.Sprintf("http://apsp-shard-%d", s.ID),
			query: client.New(client.Options{
				Transport:      rt,
				AttemptTimeout: opts.AttemptTimeout,
				MaxAttempts:    opts.MaxAttempts,
				Hedge:          true,
				HedgeDelay:     opts.HedgeDelay,
				Seed:           opts.Seed + int64(s.ID),
			}),
			// Admin calls: one attempt, no hedge, no breaker, physical
			// addressing — a mutation must reach each backend exactly as
			// many times as the operator asked for it, and a refused one
			// must surface, not trip reads.
			admin: client.New(client.Options{
				Transport:      opts.Inner,
				AttemptTimeout: opts.AttemptTimeout,
				MaxAttempts:    1,
				Seed:           opts.Seed + int64(s.ID),
				BreakerTrip:    -1,
			}),
		})
	}
	return r, nil
}

// Metrics exposes the router instrument set (for tests and embedding).
func (r *Router) Metrics() *Metrics { return r.met }

// Handler builds the route table — the same surface apspd serves, so a
// client needs no code change to move from one backend to the cluster.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist", r.forward("dist"))
	mux.HandleFunc("GET /path", r.forward("path"))
	mux.HandleFunc("POST /batch", r.handleBatch)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("POST /admin/recompute", r.handleRecompute)
	return mux
}

func (r *Router) logAt(level slog.Level, msg string, attrs ...slog.Attr) {
	if r.log != nil {
		r.log.LogAttrs(context.Background(), level, msg, attrs...)
	}
}

// forward routes a single-source query (/dist or /path) to the shard
// owning src, verbatim query string and all, and relays the backend's
// answer — status, body, and the generation/shard headers the cluster
// contract rides on. A query string that does not parse is refused here,
// through the backend's own reader, without a hop.
func (r *Router) forward(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		qc, lat := r.met.Query(kind)
		qc.Inc()
		start := time.Now()
		defer func() { lat.Observe(time.Since(start).Seconds()) }()

		q, status := oracle.ReadQuery(w, req, kind)
		if status != 0 {
			r.met.Errors.Inc()
			return
		}
		sc := r.shardClientFor(q.Src)
		if sc == nil {
			r.met.Errors.Inc()
			r.unrouted(q).WriteError(w)
			return
		}
		ctx, cancel := context.WithTimeout(req.Context(), deadline)
		defer cancel()
		resp, err := sc.query.GetJSON(ctx, sc.base+"/"+kind+"?"+req.URL.RawQuery, nil)
		if err != nil {
			r.met.ShardFailures.Inc()
			r.met.Errors.Inc()
			oracle.WriteRetry(w, http.StatusBadGateway, "shard %d unavailable: %v", sc.shard.ID, err)
			return
		}
		gen := r.noteGen(sc, resp.Header)
		if resp.Status >= 400 {
			r.met.Errors.Inc()
		}
		relayHeaders(w, resp.Header)
		w.Header().Set(oracle.GenHeader, strconv.FormatUint(gen, 10))
		w.WriteHeader(resp.Status)
		_, _ = w.Write(resp.Body)
	}
}

// relayHeaders copies the answer headers a cluster client relies on.
func relayHeaders(w http.ResponseWriter, h http.Header) {
	for _, k := range []string{"Content-Type", oracle.ShardHeader, "Retry-After"} {
		if v := h.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

// unrouted is the answer to a query whose source no shard owns.
func (r *Router) unrouted(q oracle.Query) oracle.Answer {
	r.met.Unrouted.Inc()
	return q.Fail(http.StatusNotFound, "source %d outside cluster map (n=%d)", q.Src, r.opts.Map.N)
}

// noteGen folds the generation a shard's response header reports into the
// shard's tracked generation, which only moves up, and into its gauge. It
// returns the reported generation: 0 when the header is missing or is not
// a decimal uint64.
func (r *Router) noteGen(sc *shardClient, h http.Header) uint64 {
	gen, err := strconv.ParseUint(h.Get(oracle.GenHeader), 10, 64)
	if err != nil {
		return 0
	}
	for {
		old := sc.lastGen.Load()
		if gen <= old || sc.lastGen.CompareAndSwap(old, gen) {
			break
		}
	}
	r.met.shardGen[sc.shard.ID].Set(float64(sc.lastGen.Load()))
	return gen
}

func (r *Router) shardClientFor(src int) *shardClient {
	s := r.opts.Map.ShardFor(src)
	if s == nil {
		return nil
	}
	for _, sc := range r.shards {
		if sc.shard.ID == s.ID {
			return sc
		}
	}
	return nil
}

// shardBatchResp is a backend /batch answer as json.Unmarshal reads it,
// for the bodies oracle.SplitResults does not take. Its package and name
// are part of the decoder's type-error texts, which the router relays in
// 502 entries.
type shardBatchResp struct {
	Gen     uint64            `json:"gen"`
	Results []json.RawMessage `json:"results"`
}

// subBatch is the per-shard slice of one /batch: which original indexes
// went to the shard, and the queries to send. lastGen records the
// generation of its most recent successful answer (0 = failed).
type subBatch struct {
	sc      *shardClient
	indexes []int
	queries []oracle.Query
	lastGen uint64
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	qc, lat := r.met.Query("batch")
	qc.Inc()
	start := time.Now()
	defer func() { lat.Observe(time.Since(start).Seconds()) }()

	// The backend's limits and reader: a batch the router accepts is one
	// each backend accepts.
	queries, status := oracle.ReadBatch(w, req)
	if status != 0 {
		r.met.Errors.Inc()
		return
	}

	// Split by owning shard; queries no shard owns get their entry here.
	results := make([]json.RawMessage, len(queries))
	subs := map[int]*subBatch{}
	for i, q := range queries {
		sc := r.shardClientFor(q.Src)
		if sc == nil {
			results[i] = oracle.AppendAnswer(nil, r.unrouted(q))
			continue
		}
		sb := subs[sc.shard.ID]
		if sb == nil {
			sb = &subBatch{sc: sc}
			subs[sc.shard.ID] = sb
		}
		sb.indexes = append(sb.indexes, i)
	}
	for _, sb := range subs {
		sb.queries = make([]oracle.Query, len(sb.indexes))
		for j, i := range sb.indexes {
			sb.queries[j] = queries[i]
		}
	}

	ctx, cancel := context.WithTimeout(req.Context(), deadline)
	defer cancel()

	// Scatter, gather, and chase generation agreement: if the gathered
	// shards disagree (a rollout is mid-flight), the lagging sub-batches
	// are re-issued once — their backends have usually republished by the
	// time the fastest shard answered from the new generation. Still mixed
	// after that: refuse with 503 rather than hand out a frankenanswer.
	gens, failed := r.scatter(ctx, subs, results)
	if len(gens) > 1 {
		var maxGen uint64
		for g := range gens {
			if g > maxGen {
				maxGen = g
			}
		}
		retry := map[int]*subBatch{}
		for id, sb := range subs {
			if sb.lastGen != 0 && sb.lastGen < maxGen {
				r.met.GenRetries.Inc()
				retry[id] = sb
			}
		}
		_, rfailed := r.scatter(ctx, retry, results)
		failed += rfailed
		// Re-derive the gathered generations from every sub-batch's final
		// answer (a failed retry drops its shard — its slots already carry
		// 502 entries, which don't claim a generation).
		gens = map[uint64]bool{}
		for _, sb := range subs {
			if g := sb.lastGen; g != 0 {
				gens[g] = true
			}
		}
		if len(gens) > 1 {
			r.met.MixedGenRefusals.Inc()
			r.met.Errors.Inc()
			r.logAt(slog.LevelWarn, "refusing mixed-generation batch", slog.Uint64("max_gen", maxGen))
			oracle.WriteRetry(w, http.StatusServiceUnavailable,
				"cluster generations disagree even after retry (rollout in progress), retry later")
			return
		}
	}
	var gen uint64
	for g := range gens {
		gen = g
	}
	if failed > 0 {
		r.met.Errors.Inc()
	}
	// Results are raw backend entries, spliced in request order.
	size := 32
	for _, res := range results {
		size += len(res) + 1
	}
	w.Header().Set(oracle.GenHeader, strconv.FormatUint(gen, 10))
	oracle.WriteBody(w, http.StatusOK, oracle.AppendResults(make([]byte, 0, size), gen, len(results), func(b []byte, i int) []byte {
		return append(b, results[i]...)
	}))
}

// scatter posts every sub-batch concurrently, writes each answer's raw
// results (or synthesized error entries) into the request-order slots, and
// returns the set of generations gathered plus the failed-shard count.
func (r *Router) scatter(ctx context.Context, subs map[int]*subBatch, results []json.RawMessage) (map[uint64]bool, int) {
	var mu sync.Mutex
	gens := map[uint64]bool{}
	failed := 0
	var wg sync.WaitGroup
	for _, sb := range subs {
		wg.Add(1)
		go func(sb *subBatch) {
			defer wg.Done()
			gen, ok := r.scatterOne(ctx, sb, results)
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				failed++
				return
			}
			gens[gen] = true
		}(sb)
	}
	wg.Wait()
	return gens, failed
}

// scatterOne sends one shard's sub-batch and places its results. On shard
// failure every slot gets a 502 error entry — the batch still answers.
func (r *Router) scatterOne(ctx context.Context, sb *subBatch, results []json.RawMessage) (uint64, bool) {
	sb.lastGen = 0
	body := oracle.AppendBatch(make([]byte, 0, 32*len(sb.queries)+16), sb.queries)
	var gen uint64
	var raw []json.RawMessage
	resp, err := sb.sc.query.PostJSON(ctx, sb.sc.base+"/batch", body, nil)
	if err == nil && resp.Status == http.StatusOK {
		var ok bool
		if gen, raw, ok = oracle.SplitResults(make([]json.RawMessage, 0, len(sb.indexes)), resp.Body); !ok {
			var sr shardBatchResp
			err = json.Unmarshal(resp.Body, &sr)
			gen, raw = sr.Gen, sr.Results
		}
	}
	if err != nil || resp.Status != http.StatusOK || len(raw) != len(sb.indexes) {
		var reason string
		switch {
		case err != nil:
			reason = err.Error()
		case resp.Status != http.StatusOK:
			reason = fmt.Sprintf("shard answered HTTP %d", resp.Status)
		default:
			reason = fmt.Sprintf("shard answered %d results for %d queries", len(raw), len(sb.indexes))
		}
		r.met.ShardFailures.Inc()
		r.logAt(slog.LevelWarn, "batch shard failed",
			slog.Int("shard", sb.sc.shard.ID), slog.String("err", reason))
		for j, i := range sb.indexes {
			results[i] = oracle.AppendAnswer(nil, sb.queries[j].Fail(http.StatusBadGateway, "shard %d: %s", sb.sc.shard.ID, reason))
		}
		return 0, false
	}
	r.noteGen(sb.sc, resp.Header)
	sb.lastGen = gen
	for j, i := range sb.indexes {
		results[i] = raw[j]
	}
	return gen, true
}

// clusterHealth is the router /healthz body: the cluster verdict plus one
// probe result per shard.
type clusterHealth struct {
	Status  string        `json:"status"` // "ok" | "degraded"
	N       int           `json:"n"`
	Rollout bool          `json:"rollout,omitempty"`
	Shards  []shardHealth `json:"shards"`
}

type shardHealth struct {
	ID          int    `json:"id"`
	Lo          int    `json:"lo"`
	Hi          int    `json:"hi"`
	Status      string `json:"status"`
	Gen         uint64 `json:"gen,omitempty"`
	Shard       string `json:"shard,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Error       string `json:"error,omitempty"`
}

// handleHealthz probes every shard concurrently. The cluster is "ok" (200)
// only when every shard answers, agrees with the map's node count, and —
// when the map pins a fingerprint — serves that exact graph; anything less
// is "degraded" (503). A router in front of the wrong backends must fail
// its readiness check, not serve wrong answers.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := context.WithTimeout(req.Context(), deadline)
	defer cancel()
	resp := clusterHealth{Status: "ok", N: r.opts.Map.N, Rollout: r.rolling.Load(), Shards: make([]shardHealth, len(r.shards))}
	var wg sync.WaitGroup
	for i, sc := range r.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			resp.Shards[i] = r.probeShard(ctx, sc)
		}(i, sc)
	}
	wg.Wait()
	status := http.StatusOK
	for i := range resp.Shards {
		up := resp.Shards[i].Status == "ok" || resp.Shards[i].Status == "stale"
		r.met.shardUp[resp.Shards[i].ID].Set(b2f(up))
		if !up {
			resp.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	oracle.WriteJSON(w, status, resp)
}

// probeShard checks one shard's health against the map's expectations.
func (r *Router) probeShard(ctx context.Context, sc *shardClient) shardHealth {
	sh := shardHealth{ID: sc.shard.ID, Lo: sc.shard.Lo, Hi: sc.shard.Hi}
	var bh oracle.Health
	resp, err := sc.query.GetJSON(ctx, sc.base+"/healthz", &bh)
	if err != nil {
		sh.Status, sh.Error = "down", err.Error()
		return sh
	}
	if resp.Status != http.StatusOK {
		sh.Status, sh.Error = "down", fmt.Sprintf("healthz answered HTTP %d", resp.Status)
		return sh
	}
	r.noteGen(sc, resp.Header)
	sh.Status, sh.Gen, sh.Shard, sh.Fingerprint = bh.Status, bh.Gen, bh.Shard, bh.Fingerprint
	switch {
	case bh.N != 0 && bh.N != r.opts.Map.N:
		sh.Status = "mismatch"
		sh.Error = fmt.Sprintf("backend serves n=%d, map says n=%d", bh.N, r.opts.Map.N)
	case r.opts.Map.Fingerprint != "" && bh.Fingerprint != "" && bh.Fingerprint != r.opts.Map.Fingerprint:
		sh.Status = "mismatch"
		sh.Error = fmt.Sprintf("backend fingerprint %s, map pins %s", bh.Fingerprint, r.opts.Map.Fingerprint)
	}
	return sh
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	r.syncClientStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := r.met.Write(w); err != nil {
		r.logAt(slog.LevelWarn, "metrics write", slog.Any("err", err))
	}
}

// syncClientStats folds the per-shard client counters into the registry
// (set-via-add: only the delta since the last scrape is added, keeping the
// exported counters monotone).
func (r *Router) syncClientStats() {
	var total client.Stats
	for _, sc := range r.shards {
		for _, s := range []client.Stats{sc.query.Snapshot(), sc.admin.Snapshot()} {
			total.Attempts += s.Attempts
			total.Retries += s.Retries
			total.Hedges += s.Hedges
			total.HedgeWins += s.HedgeWins
			total.BreakerFast += s.BreakerFast
			total.BreakerOpens += s.BreakerOpens
		}
	}
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	r.met.attempts.Add(float64(total.Attempts - r.synced.Attempts))
	r.met.retries.Add(float64(total.Retries - r.synced.Retries))
	r.met.hedges.Add(float64(total.Hedges - r.synced.Hedges))
	r.met.hedgeWins.Add(float64(total.HedgeWins - r.synced.HedgeWins))
	r.met.breakerFast.Add(float64(total.BreakerFast - r.synced.BreakerFast))
	r.met.breakerOpens.Add(float64(total.BreakerOpens - r.synced.BreakerOpens))
	r.synced = total
}

// handleRecompute starts a shard-by-shard rollout and answers 202. Single
// flight: a second trigger while one drains answers 409. The router walks
// the shards in order, triggering each backend's recompute and waiting for
// its generation to advance before moving on — at most one shard is
// computing at any moment, so the cluster keeps (N-1)/N of its capacity
// and /batch answers stay single-generation except for the brief window a
// shard republishes in (which the mixed-generation retry absorbs). A
// backend saves its new generation while the next one computes; the
// rollout ends once every triggered backend has saved.
func (r *Router) handleRecompute(w http.ResponseWriter, req *http.Request) {
	if !r.rolling.CompareAndSwap(false, true) {
		r.met.Errors.Inc()
		oracle.WriteRetry(w, http.StatusConflict, "rollout already running")
		return
	}
	r.met.Rollouts.Inc()
	r.met.RolloutActive.Set(1)
	go r.rollout()
	oracle.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "rollout started"})
}

// rolled is one replica that published during a rollout: its shard, its
// physical base URL, and the generation the router saw it publish.
type rolled struct {
	sc   *shardClient
	base string
	gen  uint64
}

// rollout runs in two phases. Publish: each replica in turn is triggered
// and the router moves on as soon as it serves a new generation, so one
// replica's autosave runs while the next computes. Settle: every replica
// that published must report that generation or a newer one with its
// recompute (publish and autosave) done. Only then is the rollout over.
func (r *Router) rollout() {
	defer func() {
		r.rolling.Store(false)
		r.met.RolloutActive.Set(0)
	}()
	start := time.Now()
	var done []rolled
	var err error
publish:
	for _, sc := range r.shards {
		for _, base := range sc.shard.Replicas {
			var gen uint64
			if gen, err = r.rolloutReplica(sc, base); err != nil {
				break publish
			}
			done = append(done, rolled{sc, base, gen})
		}
	}
	published := time.Now()
	// Settle even after an aborted publish phase: the replicas that did
	// publish are saving, and the next rollout must not trigger one
	// mid-save.
	for _, rr := range done {
		if serr := r.settleReplica(rr); err == nil {
			err = serr
		}
	}
	if err != nil {
		r.met.RolloutFails.Inc()
		r.logAt(slog.LevelError, "rollout aborted", slog.Any("err", err))
		return
	}
	r.logAt(slog.LevelInfo, "rollout finished", slog.Duration("dur", time.Since(start)),
		slog.Duration("publish_dur", published.Sub(start)), slog.Duration("settle_dur", time.Since(published)))
}

// rolloutReplica tells one replica to recompute (one POST, physically
// addressed, never hedged or retried) and polls its /healthz until it
// serves a new generation, which it returns. It does not wait for the
// replica's autosave; settleReplica does.
func (r *Router) rolloutReplica(sc *shardClient, base string) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RolloutTimeout)
	defer cancel()
	var pre oracle.Health
	if _, err := sc.admin.GetJSON(ctx, base+"/healthz", &pre); err != nil {
		return 0, fmt.Errorf("pre-rollout health of %s (shard %d): %w", base, sc.shard.ID, err)
	}
	resp, err := sc.admin.Do(ctx, http.MethodPost, base+"/admin/recompute", "", nil)
	if err != nil {
		return 0, fmt.Errorf("trigger %s (shard %d): %w", base, sc.shard.ID, err)
	}
	// 202 = started; 409 = one already running (count it as ours and wait).
	if resp.Status != http.StatusAccepted && resp.Status != http.StatusConflict {
		return 0, fmt.Errorf("trigger %s (shard %d) answered HTTP %d", base, sc.shard.ID, resp.Status)
	}
	bh, err := r.pollReplica(ctx, sc, base, r.opts.RolloutPoll, func(bh oracle.Health) (bool, error) {
		if bh.Status == "stale" {
			return false, fmt.Errorf("%s (shard %d) recompute failed (serving stale gen %d)", base, sc.shard.ID, bh.Gen)
		}
		return bh.Gen > pre.Gen, nil
	})
	if errors.Is(err, context.DeadlineExceeded) {
		return 0, fmt.Errorf("%s (shard %d) did not republish within %v (still gen %d)",
			base, sc.shard.ID, r.opts.RolloutTimeout, pre.Gen)
	}
	if err != nil {
		return 0, err
	}
	r.logAt(slog.LevelInfo, "replica rolled",
		slog.Int("shard", sc.shard.ID), slog.String("replica", base), slog.Uint64("gen", bh.Gen))
	return bh.Gen, nil
}

// settleReplica polls a replica that published rr.gen until its recompute
// is over: oracle.Health.Recomputing stays true until the published
// snapshot's autosave returns. A replica that reports an older generation
// restarted after its publish, so that generation may never have reached
// its disk: the rollout fails at once rather than waiting out the timeout.
func (r *Router) settleReplica(rr rolled) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RolloutTimeout)
	defer cancel()
	id := rr.sc.shard.ID
	bh, err := r.pollReplica(ctx, rr.sc, rr.base, 0, func(bh oracle.Health) (bool, error) {
		switch {
		case bh.Gen < rr.gen:
			return false, fmt.Errorf("%s (shard %d) published gen %d, then came back at gen %d: restarted before its save",
				rr.base, id, rr.gen, bh.Gen)
		case bh.Status == "stale":
			return false, fmt.Errorf("%s (shard %d) recompute failed after publishing gen %d (serving stale gen %d)",
				rr.base, id, rr.gen, bh.Gen)
		}
		return !bh.Recomputing, nil
	})
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%s (shard %d) did not finish saving gen %d within %v", rr.base, id, rr.gen, r.opts.RolloutTimeout)
	}
	if err != nil {
		return err
	}
	r.logAt(slog.LevelInfo, "replica settled",
		slog.Int("shard", id), slog.String("replica", rr.base), slog.Uint64("gen", bh.Gen))
	return nil
}

// pollReplica probes base's /healthz, first after the given delay and then
// every RolloutPoll, until done accepts an answer or fails it, or ctx ends
// (its error is returned). A probe that fails or answers other than 200 is
// transient: the poll goes on until the deadline.
func (r *Router) pollReplica(ctx context.Context, sc *shardClient, base string, first time.Duration,
	done func(oracle.Health) (bool, error)) (oracle.Health, error) {
	for wait := first; ; wait = r.opts.RolloutPoll {
		select {
		case <-ctx.Done():
			return oracle.Health{}, ctx.Err()
		case <-time.After(wait):
		}
		var bh oracle.Health
		resp, err := sc.admin.GetJSON(ctx, base+"/healthz", &bh)
		if err != nil || resp.Status != http.StatusOK {
			continue
		}
		r.noteGen(sc, resp.Header)
		if ok, err := done(bh); ok || err != nil {
			return bh, err
		}
	}
}
