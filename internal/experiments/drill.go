package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/httpfault"
	"repro/internal/inproc"
	"repro/internal/key"
	"repro/internal/oracle"
)

func init() {
	register("E-CHAOS", eChaos)
	register("E-CLUSTER", eCluster)
}

// eChaos is the serving-layer resilience drill on one backend, reached
// straight through the resilient client with the fault injector on that
// hop: clean (no faults, no errors), chaos (httpfault.All on a serial
// loop, a pure function of the seed, at most 5% errors) and crash (paced
// load under httpfault.All, the backend killed mid-load and recovered
// from its autosave dir, at least 50% ok).
func eChaos(cfg Config) (*Table, error) {
	n, m, q := 192, 768, 1200
	if cfg.Small {
		n, m, q = 64, 256, 240
	}
	d, err := newDrill(n, m, cfg.Seed, 1, 1, false)
	if err != nil {
		return nil, err
	}
	defer d.close()
	t := &Table{
		ID:      "E-CHAOS",
		Title:   "serving-layer resilience: fault injection, retries and crash recovery (validated answers)",
		Headers: []string{"phase", "queries", "ok", "errors", "wrong", "attempts", "retries", "injected"},
	}
	// Attempts time out only when blackholed: the timeout is far above an
	// in-process answer, so the serial rows stay a function of the seed.
	serial := client.Options{AttemptTimeout: 50 * time.Millisecond, MaxAttempts: 4, BaseBackoff: 500 * time.Microsecond,
		MaxBackoff: 4 * time.Millisecond, CapRetryAfter: 2 * time.Millisecond, Seed: cfg.Seed, BreakerTrip: -1}
	crash := serial
	crash.MaxAttempts, crash.Hedge, crash.BreakerTrip = 6, true, 0
	w := client.DefaultBreakerTrip // enough callers to trip the breaker when the backend dies
	err = d.phases([]phase{
		{"clean", "", serial, 0, []op{{kind: "query", a: -1, b: q}}},
		{"chaos", "", serial, q / 20, []op{{kind: "faults", a: 1}, {kind: "query", a: -1, b: q}}},
		{"crash", "", crash, q - q/2, []op{{kind: "faults", a: 1, b: 1}, {kind: "load", a: w, b: q}, {kind: "await"}, {kind: "kill"}, {kind: "restart", b: 1}}},
	}, func(ph phase, r *tally) {
		t.AddRow(ph.name, r.queries.Load(), r.ok.Load(), r.queries.Load()-r.ok.Load(), r.wrong.Load(), r.attempts, r.retries, r.injected)
	})
	t.Note("n=%d, one backend serving every source, in process on the drill's socket-free transport; every response the client got, retried ones included, was judged against the reference for its stamped generation (zero-wrong-answers gate)", n)
	t.Note("clean and chaos run a serial closed loop: their rows are bit-deterministic from the seed (faults are a keyed PRF over the attempt index)")
	t.Note("crash paces %d queries at %d/s over %d callers, kills the backend once half have resolved and restarts it from its autosave dir (oracle.RecoverDir); its ok/error split is timing-dependent, the zero-wrong and >=50%% survival bounds are the asserted part", q, loadRate, w)
	return t, err
}

// eCluster is the cluster drill: three shard backends behind the
// scatter-gather router, the resilient client in front: clean (serial, no
// faults, no errors), kill (paced load under httpfault.All on the router's
// hop, backend 1 killed mid-load and recovered, at least 50% ok) and
// rollout (a new content version drained shard by shard under mixed load;
// it must complete).
func eCluster(cfg Config) (*Table, error) {
	n, m, cleanQ, killQ, rollQ := 120, 480, 600, 900, 300
	if cfg.Small {
		n, m, cleanQ, killQ, rollQ = 48, 192, 200, 300, 120
	}
	// Eight callers share the router's one-second waits on injected 503s.
	const nShards, victim, w = 3, 1, 8
	d, err := newDrill(n, m, cfg.Seed, nShards, 1, true)
	if err != nil {
		return nil, err
	}
	defer d.close()
	t := &Table{
		ID:      "E-CLUSTER",
		Title:   "oracle cluster: scatter-gather routing, backend kill under chaos, generation-aware rollout",
		Headers: []string{"phase", "queries", "ok", "errors", "wrong", "refused", "detail"},
	}
	// The router's retries and breakers bridge the backends; the client
	// waits out the router's deadline and keeps no breaker of its own.
	co := client.Options{AttemptTimeout: 6 * time.Second, MaxAttempts: 2, BaseBackoff: 500 * time.Microsecond,
		MaxBackoff: 4 * time.Millisecond, CapRetryAfter: 2 * time.Millisecond, Seed: cfg.Seed, BreakerTrip: -1}
	err = d.phases([]phase{
		{"clean", "serial, no faults", co, 0, []op{{kind: "query", a: -1, b: cleanQ * 9 / 10}, {kind: "query", a: -1, b: cleanQ / 10, c: 2}}},
		{"kill", fmt.Sprintf("backend %d killed+recovered, chaos transport, %d callers", victim, w), co, killQ - killQ/2,
			[]op{{kind: "faults", a: 1}, {kind: "load", a: w, b: killQ}, {kind: "await"}, {kind: "kill", a: victim}, {kind: "restart", a: victim, b: 1}}},
		{"rollout", "shard-by-shard recompute drain, load concurrent with the swap", co, rollQ,
			[]op{{kind: "faults"}, {kind: "load", a: 1, b: rollQ, c: 1}, {kind: "rollout"}}},
	}, func(ph phase, r *tally) {
		t.AddRow(ph.name, r.queries.Load(), r.ok.Load(), r.queries.Load()-r.ok.Load(), r.wrong.Load(), r.refused.Load(), ph.detail)
	})
	t.Note("n=%d over %d shard backends, in process on the drill's socket-free transport; every response the client got, retried ones included, was judged against the reference for its stamped generation (zero-wrong-answers gate)", n, nShards)
	t.Note("kill phase: httpfault.All on the router->backend hop plus a backend kill that fails its in-flight requests and an autosave recovery; the >=50%% availability and zero-wrong bounds are the asserted part")
	t.Note("'refused' counts non-200 responses and failed /batch entries the client saw, retried ones included (503 mixed-generation refusals, 502 shard failures); a 404 for an unreachable path is an answer")
	return t, err
}

// phase is one table row: a script, the client it runs through, and the
// most errors it may end with.
type phase struct {
	name, detail string
	co           client.Options
	maxErrors    int
	script       []op
}

// phases runs each phase in turn and stops at the first wrong answer,
// aborted rollout or missed bound; row records a phase that passed.
func (d *drill) phases(phases []phase, row func(phase, *tally)) error {
	for _, ph := range phases {
		r, err := d.run(ph.script, ph.co)
		switch {
		case err != nil:
			return fmt.Errorf("%s phase: %w", ph.name, err)
		case r.wrong.Load() != 0:
			return fmt.Errorf("%s phase: %d wrong answers, first: %s", ph.name, r.wrong.Load(), *r.firstWrong.Load())
		case r.aborted.Load() != 0:
			return fmt.Errorf("%s phase: the rollout aborted before every shard republished and saved", ph.name)
		case r.queries.Load()-r.ok.Load() > int64(ph.maxErrors):
			return fmt.Errorf("%s phase: %d of %d queries failed, bound %d", ph.name, r.queries.Load()-r.ok.Load(), r.queries.Load(), ph.maxErrors)
		}
		row(ph, r)
	}
	return nil
}

// loadRate paces concurrent load: the i-th query of a load is due i/loadRate
// seconds after it starts, so failures count the queries due during an
// outage, not how many a tight loop burns through a fast-failing breaker.
const loadRate = 400

// opKinds are the drill's operations. An op's operands a, b and c mean:
//
//	query    b queries of kind c (0 /dist, 1 /path, 2 /batch) to target a:
//	         -1 the front door (the router, else replica 0), i >= 0 replica
//	         i directly
//	load     b queries paced at loadRate over a concurrent callers, mix c
//	         (0 /dist only, 1 one /path and one /batch in every five)
//	await    wait until half the load started so far has resolved
//	rollout  new content version, POST /admin/recompute to the router, wait
//	         for the drain (routed drills only)
//	kill     kill replica a: new requests are refused, in-flight ones fail
//	restart  restart replica a from its autosave dir, as apspd boots; with
//	         b = 1 a cold compute (nothing loaded) is a harness failure
//	crash    new content version, recompute replica a and kill it between
//	         the publish and the autosave
//	corrupt  flip a byte of replica a's newest autosave file
//	faults   plan a (0 none, 1 httpfault.All, 2 All without 503s) seeded
//	         seed+b on every hop into a backend
//	remap    replace the router by one whose map gives shard a the replicas
//	         in bit mask b
var opKinds = []string{"query", "load", "await", "rollout", "kill", "restart", "crash", "corrupt", "faults", "remap"}

var queryKinds = [3]string{"dist", "path", "batch"}

// op is one step of a drill script.
type op struct {
	kind    string
	a, b, c int
}

func (o op) String() string { return fmt.Sprintf("%s(%d,%d,%d)", o.kind, o.a, o.b, o.c) }

// version is one content version: the base topology under its own
// weights, and the reference distances answers are judged by.
type version struct {
	g    *graph.Graph
	fp   uint64
	dist [][]int64
}

// replica is one backend of the drill and the shard it serves.
type replica struct {
	inproc.Backend
	shard int
}

// drill is one in-process serving tier: shards × replicas oracle backends
// with autosave dirs and an optional router, on one socket-free network.
type drill struct {
	n, shards int
	seed      int64
	routed    bool
	base      *graph.Graph
	m         *cluster.Map // the source ranges, shared by every router's map
	reps      []*replica
	net       inproc.Net
	faults    atomic.Pointer[httpfault.Transport]
	retired   atomic.Uint64 // faults injected by replaced transports
	admin     *http.Client  // recompute triggers, unjudged
	log       *slog.Logger  // ERROR records only, kept in errs
	errs      errLog
	root      string

	mu       sync.Mutex
	versions []*version
	target   int                // the version a recompute builds
	gens     []map[uint64][]int // per shard: generation → versions served under it
	sets     [][]string         // the router's replica sets
	router   *cluster.Router
	census   map[string]int // ops that took effect
}

func newDrill(n, m int, seed int64, shards, replicas int, routed bool) (*drill, error) {
	root, err := os.MkdirTemp("", "drill-")
	if err != nil {
		return nil, err
	}
	d := &drill{n: n, shards: shards, seed: seed, routed: routed, root: root,
		base:   graph.Random(n, m, graph.GenOpts{Seed: seed, MaxW: 8, ZeroFrac: 0.25, Directed: true}),
		census: map[string]int{}, gens: make([]map[uint64][]int, shards), sets: make([][]string, shards)}
	d.log = slog.New(slog.NewTextHandler(&d.errs, &slog.HandlerOptions{Level: slog.LevelError}))
	d.admin = &http.Client{Transport: &d.net}
	d.faults.Store(&httpfault.Transport{Inner: &d.net})
	for i := range shards * replicas {
		k, host := i/replicas, fmt.Sprintf("s%dr%d", i/replicas, i%replicas)
		d.reps = append(d.reps, &replica{shard: k, Backend: inproc.Backend{Net: &d.net, Host: host, Dir: filepath.Join(root, host),
			ShardID: cluster.FormatShardID(k, shards), Log: d.log,
			Build: func(g *graph.Graph) (*oracle.Snapshot, error) { return d.build(k, g) },
			Next: func(gen uint64) *graph.Graph {
				var v int
				d.locked(func() { v = d.target })
				d.noteGen(k, gen, v)
				return d.version(v).g
			}}})
		d.gens[k] = map[uint64][]int{}
		d.sets[k] = append(d.sets[k], "http://"+host)
	}
	d.m, err = cluster.NewContiguous(n, "", d.sets)
	for i := 0; i < len(d.reps) && err == nil; i++ {
		_, err = d.restart(d.reps[i])
	}
	if err == nil && routed {
		err = d.route(d.sets)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *drill) close() {
	for _, rep := range d.reps {
		rep.Kill()
	}
	d.net.Set("router", nil)
	os.RemoveAll(d.root)
}

func (d *drill) locked(f func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f()
}

// version returns content version v, building it on first use. Version 0
// is the base graph; version v > 0 adds to arc j a weight in [0, 11) hashed
// from (v, j), which moves distances and shortest paths, so a stale
// distance or a stale cached path is wrong by value, not only by
// generation number. No two versions share their weights: a repeat panics.
func (d *drill) version(v int) (ver *version) {
	d.locked(func() {
		for i := len(d.versions); i <= v; i++ {
			g := graph.New(d.n, true)
			for j, e := range d.base.Edges() {
				w := e.W
				if i > 0 {
					w += int64(key.Mix64(uint64(i)<<32|uint64(j)) % 11)
				}
				g.MustAddEdge(e.From, e.To, w)
			}
			next := &version{g: g, fp: checkpoint.Fingerprint(g), dist: make([][]int64, d.n)}
			if slices.ContainsFunc(d.versions, func(old *version) bool { return old.fp == next.fp }) {
				panic(fmt.Sprintf("drill: content version %d repeats an earlier one", i))
			}
			for s := range next.dist {
				next.dist[s] = graph.Dijkstra(g, s)
			}
			d.versions = append(d.versions, next)
		}
		ver = d.versions[v]
	})
	return ver
}

// build computes shard k's snapshot of g on the parallel backend.
func (d *drill) build(k int, g *graph.Graph) (*oracle.Snapshot, error) {
	sh := d.m.Shards[k]
	sources := make([]int, 0, sh.K())
	for s := sh.Lo; s < sh.Hi; s++ {
		sources = append(sources, s)
	}
	in, err := oracle.Compute(context.Background(), g, oracle.ComputeSpec{Alg: "pipeline", Backend: "parallel", Sources: sources})
	if err != nil {
		return nil, err
	}
	return oracle.Build(g, in, oracle.BuildOpts{Fingerprint: checkpoint.Fingerprint(g)})
}

// noteGen records that shard k serves version v under generation gen. It
// runs before the publish, so no answer outruns its record. Generations
// are per server: each restart counts from 1 again.
func (d *drill) noteGen(k int, gen uint64, v int) {
	d.locked(func() {
		if !slices.Contains(d.gens[k][gen], v) {
			d.gens[k][gen] = append(d.gens[k][gen], v)
		}
	})
}

// restart boots rep the way apspd boots (inproc.Backend.Restart) with the
// version it last saved, the base graph before its first save. It reports
// whether the snapshot came from the autosave dir.
func (d *drill) restart(rep *replica) (recovered bool, err error) {
	saved := rep.Saved()
	var v int
	d.locked(func() { v = max(slices.IndexFunc(d.versions, func(ver *version) bool { return ver.g == saved }), 0) })
	d.noteGen(rep.shard, 1, v)
	return rep.Restart(d.version(v).g)
}

// recompute starts a new content version and asks host to build it.
func (d *drill) recompute(host string) error {
	d.locked(func() { d.target++ })
	d.version(d.target)
	resp, err := d.admin.Post("http://"+host+"/admin/recompute", "", nil)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("recompute on %s answered %d, want 202", host, resp.StatusCode)
		}
	}
	return err
}

// route puts a router over the given replica sets on the network.
func (d *drill) route(sets [][]string) error {
	m, err := cluster.NewContiguous(d.n, "", sets)
	if err != nil {
		return err
	}
	r, err := cluster.NewRouter(cluster.Options{Map: m, Inner: backends{d}, AttemptTimeout: 50 * time.Millisecond, MaxAttempts: 4,
		HedgeDelay: 10 * time.Millisecond, Seed: d.seed, RolloutPoll: 2 * time.Millisecond, RolloutTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	d.locked(func() { d.router, d.sets = r, sets })
	d.net.Set("router", r.Handler())
	return nil
}

// setFaults puts plan a seeded seed+b on every hop into a backend.
func (d *drill) setFaults(a, b int) {
	var p httpfault.Plan
	if a > 0 {
		p = httpfault.All(d.seed + int64(b))
	}
	if a == 2 {
		p.Err503 = 0 // the router waits out a 503's Retry-After: 1 for a whole second
	}
	old := d.faults.Swap(&httpfault.Transport{Plan: p, Inner: &d.net})
	d.retired.Add(injectedTotal(old.Snapshot()))
}

// injectedTotal sums an injector's fault events (Requests counts
// admissions, not faults).
func injectedTotal(s httpfault.Stats) uint64 {
	return s.Delays + s.ResetsPre + s.ResetsPost + s.Err500s + s.Err503s + s.Truncations + s.Blackholes
}

// corruptNewest flips a byte in the middle of dir's newest snapshot file.
func corruptNewest(dir string) (bool, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(names) == 0 {
		return false, err
	}
	newest := slices.Max(names) // names lead with the zero-padded save time
	b, err := os.ReadFile(newest)
	if err != nil {
		return false, err
	}
	b[len(b)/2] ^= 0xff
	return true, os.WriteFile(newest, b, 0o644)
}

// tally is one script run: calls and how many the tier answered in full,
// the judge's verdicts on every response, and the client's and injector's
// work.
type tally struct {
	queries, ok, wrong, refused, aborted atomic.Int64
	firstWrong                           atomic.Pointer[string]
	attempts, retries, injected          uint64
}

// run executes script with a fresh client built from co. An error is a
// harness failure (a restart that cannot read its dir, a recompute that
// never lands), not a verdict; verdicts are in the tally.
func (d *drill) run(script []op, co client.Options) (*tally, error) {
	t := &tally{}
	co.Transport = judge{d, t}
	c := client.New(co)
	injected := d.retired.Load() + injectedTotal(d.faults.Load().Snapshot())
	var wg sync.WaitGroup
	var launched, done atomic.Int64
	defer wg.Wait()
	for _, o := range script {
		took, err := true, error(nil)
		name := o.kind
		switch rep := d.reps[max(o.a, 0)%len(d.reps)]; o.kind {
		case "query":
			name = queryKinds[o.c]
			if o.a >= 0 && d.routed {
				name += " direct"
			}
			host, next := d.stream(o.a, uint64(o.c))
			for range o.b {
				d.ask(c, t, queryKinds[o.c], host, next)
			}
		case "load":
			launched.Add(int64(o.b))
			start := time.Now()
			for w := range o.a {
				wg.Add(1)
				host, next := d.stream(-1, uint64(1000+w))
				go func() {
					defer wg.Done()
					for i := w; i < o.b; i += o.a {
						time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / loadRate)))
						d.ask(c, t, queryKinds[[5]int{0, 0, 1, 0, 2}[i%5]*o.c], host, next)
						done.Add(1)
					}
				}()
			}
		case "await":
			err = inproc.Await(time.Minute, func() bool { return done.Load() >= launched.Load()/2 })
		case "rollout":
			met := d.router.Metrics()
			fails := met.RolloutFails.Value()
			if err = d.recompute("router"); err == nil {
				err = inproc.Await(time.Minute, func() bool { return met.RolloutActive.Value() == 0 })
			}
			if met.RolloutFails.Value() != fails {
				t.aborted.Add(1)
			}
		case "kill":
			took = rep.Kill()
		case "restart":
			var recovered bool
			if recovered, err = d.restart(rep); err == nil && !recovered {
				name = "restart cold"
				if o.b == 1 {
					err = fmt.Errorf("nothing in %s's autosave dir loaded", rep.Host)
				}
			}
		case "crash":
			if took = rep.Crash(); took {
				_ = d.recompute(rep.Host) // the 202 may die with the replica; the wait below is the check
				err = inproc.Await(time.Minute, func() bool { return rep.Server() == nil })
			}
		case "corrupt":
			took, err = corruptNewest(rep.Dir)
		case "faults":
			d.setFaults(o.a, o.b)
		case "remap":
			sets := slices.Clone(d.sets)
			sets[o.a] = nil
			for i, rep := range d.reps {
				if rep.shard == o.a && o.b>>(i%(len(d.reps)/d.shards))&1 == 1 {
					sets[o.a] = append(sets[o.a], "http://"+rep.Host)
				}
			}
			err = d.route(sets)
		}
		if err != nil {
			return nil, fmt.Errorf("%v: %w", o, err)
		}
		if took {
			d.locked(func() { d.census[name]++ })
		}
	}
	wg.Wait()
	if rec := d.errs.Load(); rec != nil {
		return nil, fmt.Errorf("a backend logged an error: %s", *rec)
	}
	cs := c.Snapshot()
	t.attempts, t.retries = cs.Attempts, cs.Retries
	t.injected = d.retired.Load() + injectedTotal(d.faults.Load().Snapshot()) - injected
	return t, nil
}

// errLog keeps the first record the backends log at ERROR, such as a
// failed autosave: the run fails on it, where the lost save would
// otherwise show only at some later restart.
type errLog struct{ atomic.Pointer[string] }

func (l *errLog) Write(p []byte) (int, error) {
	rec := string(p)
	l.CompareAndSwap(nil, &rec)
	return len(p), nil
}

// stream resolves target (-1 the front door, the router or else replica
// 0; i >= 0 replica i) to its host and a deterministic query stream for
// it: pairs over every source through the router, over the replica's own
// shard otherwise.
func (d *drill) stream(target int, key uint64) (host string, next func() oracle.Query) {
	host, lo, hi := "router", 0, d.n
	if rep := d.reps[max(target, 0)]; target >= 0 || !d.routed {
		host, lo, hi = rep.Host, d.m.Shards[rep.shard].Lo, d.m.Shards[rep.shard].Hi
	}
	x := uint64(d.seed)*0x9e3779b97f4a7c15 + (key+1)*0xbf58476d1ce4e5b9
	return host, func() oracle.Query {
		x = x*6364136223846793005 + 1442695040888963407
		return oracle.Query{Src: lo + int((x>>33)%uint64(hi-lo)), Dst: int(x % uint64(d.n))}
	}
}

type askedKey struct{}

// ask sends one query through the client and counts it ok when the tier
// answered it in full. The queries ride on the context, so the judge knows
// what every attempt asked.
func (d *drill) ask(c *client.Client, t *tally, kind, host string, next func() oracle.Query) {
	qs := make([]oracle.Query, 1, 4)
	if kind == "batch" {
		qs = qs[:4]
	}
	for i := range qs {
		qs[i] = next()
		qs[i].Kind = kind
		if kind == "batch" {
			qs[i].Kind = queryKinds[i%2] // /dist and /path entries alternating
		}
	}
	ctx := context.WithValue(context.Background(), askedKey{}, qs)
	var resp *client.Response
	var err error
	if kind == "batch" {
		body, _ := json.Marshal(oracle.Batch{Queries: qs})
		resp, err = c.PostJSON(ctx, "http://"+host+"/batch", body, nil)
	} else {
		resp, err = c.GetJSON(ctx, fmt.Sprintf("http://%s/%s?src=%d&dst=%d", host, kind, qs[0].Src, qs[0].Dst), nil)
	}
	t.queries.Add(1)
	if err == nil && resp.Header.Get(answeredHeader) != "" {
		t.ok.Add(1)
	}
}

// answeredHeader is the judge's stamp on a response that answers every
// query it was asked.
const answeredHeader = "X-Drill-Answered"

// judge is the client's transport: it forwards each attempt (to the router
// straight, to a backend through the fault hop) and judges every response
// it gets back.
type judge struct {
	d *drill
	t *tally
}

func (j judge) RoundTrip(req *http.Request) (*http.Response, error) {
	var rt http.RoundTripper = backends{j.d}
	if req.URL.Host == "router" {
		rt = &j.d.net
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	qs, _ := req.Context().Value(askedKey{}).([]oracle.Query)
	why, answered := j.d.verdict(qs, req.URL.Path == "/batch", resp, body)
	switch {
	case why != "":
		j.t.firstWrong.CompareAndSwap(nil, &why) // before the count: wrong > 0 implies firstWrong is set
		j.t.wrong.Add(1)
	case !answered:
		j.t.refused.Add(1)
	default:
		resp.Header.Set(answeredHeader, "1")
	}
	return resp, nil
}

// verdict judges the response to qs: why is "" unless it is wrong for the
// generation it is stamped with, and answered reports whether it answers
// every query. A refusal states no fact, except a backend's 404 for a
// path: it answers that dst is unreachable.
func (d *drill) verdict(qs []oracle.Query, batch bool, resp *http.Response, body []byte) (why string, answered bool) {
	var out struct {
		oracle.Answer
		Gen     uint64          `json:"gen"`
		Results []oracle.Answer `json:"results"`
	}
	switch {
	case resp.StatusCode == http.StatusNotFound && !batch:
		if gen, err := strconv.ParseUint(resp.Header.Get(oracle.GenHeader), 10, 64); err == nil {
			why = d.check(qs[0], gen, oracle.Answer{Src: qs[0].Src, Dst: qs[0].Dst, Status: http.StatusNotFound, Error: "unreachable"})
		}
		return why, true
	case resp.StatusCode != http.StatusOK:
		return "", false
	case json.Unmarshal(body, &out) != nil:
		return fmt.Sprintf("undecodable 200: %.80q", body), false
	case !batch:
		out.Reachable = out.Reachable || qs[0].Kind == "path" // a /path answer has no reachable field
		return d.check(qs[0], out.Gen, out.Answer), true
	case len(out.Results) != len(qs):
		return fmt.Sprintf("/batch of %d answered %d results", len(qs), len(out.Results)), false
	}
	answered = true
	for i, a := range out.Results {
		if why := d.check(qs[i], out.Gen, a); why != "" {
			return "/batch " + why, false
		}
		answered = answered && (a.Error == "" || a.Status == http.StatusNotFound)
	}
	return "", answered
}

// check judges one answer: it must be right for a version its shard served
// under generation gen.
func (d *drill) check(q oracle.Query, gen uint64, a oracle.Answer) string {
	switch {
	case a.Src != q.Src || a.Dst != q.Dst:
		return fmt.Sprintf("%s %d→%d answered for %d→%d", q.Kind, q.Src, q.Dst, a.Src, a.Dst)
	case a.Error != "" && a.Status != http.StatusNotFound:
		return ""
	}
	shard := d.m.ShardFor(q.Src).ID
	var vs []int
	d.locked(func() { vs = slices.Clone(d.gens[shard][gen]) })
	for _, v := range vs {
		if fits(d.version(v), q, a) {
			return ""
		}
	}
	got, _ := json.Marshal(a)
	return fmt.Sprintf("%s %d→%d at gen %d of shard %d (versions %v): %s", q.Kind, q.Src, q.Dst, gen, shard, vs, got)
}

// fits reports whether a answers q right in version ver. A path is judged
// by validity — it runs from src to dst over arcs tight in ver — not by
// parent equality. The compute kernel and core.Run record the same Step 9
// parents, but an autosave written before the kernel took that rule holds
// parents from its old tie order, and a server that recovers from it
// serves those valid paths until its next rebuild; such a path is right.
func fits(ver *version, q oracle.Query, a oracle.Answer) bool {
	want, p := ver.dist[q.Src][q.Dst], a.Path
	switch {
	case a.Error != "": // a 404: dst unreachable
		return want >= graph.Inf
	case want >= graph.Inf:
		return !a.Reachable && a.Dist == nil
	case !a.Reachable || a.Dist == nil || *a.Dist != want:
		return false
	case q.Kind != "path":
		return true
	case len(p) == 0 || p[0] != q.Src || p[len(p)-1] != q.Dst:
		return false
	}
	for i := 1; i < len(p); i++ {
		du := ver.dist[q.Src][p[i-1]]
		if p[i] < 0 || p[i] >= len(ver.dist) || !slices.ContainsFunc(ver.g.Out(p[i-1]), func(e graph.Edge) bool {
			return e.To == p[i] && du+e.W == ver.dist[q.Src][p[i]]
		}) {
			return false
		}
	}
	return true
}

// backends is the hop into the backends: the current fault plan over the
// network.
type backends struct{ d *drill }

func (b backends) RoundTrip(req *http.Request) (*http.Response, error) {
	return b.d.faults.Load().RoundTrip(req)
}
