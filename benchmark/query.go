package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// queryState is what the query workloads measure on: a 3-shard cluster of
// an n=512 sparse graph and the closed-loop clients in front of it. Each
// client is an internal/client.Client with its own keep-alive transport
// and its own seeded stream of pairs.
type queryState struct {
	c       *testCluster
	batch   bool
	clients []*client.Client
	idle    []*http.Transport
	lanes   []*rand.Rand
	hot     [][2]int // fixed path pairs; they fit the three shard caches
	genS    float64
}

func (st *queryState) close() {
	for _, t := range st.idle {
		t.CloseIdleConnections()
	}
	st.c.close()
}

// query is one entry of a /batch body.
type query struct {
	Kind string `json:"kind"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
}

// batchEntry is one entry of a /batch answer.
type batchEntry struct {
	distAnswer
	Path   []int  `json:"path"`
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func bootQuery(b *bench, batch bool) (*queryState, error) {
	const n = 512
	t0 := time.Now()
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: b.seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	genS := time.Since(t0).Seconds()
	c, err := bootCluster(b, g, 3, false)
	if err != nil {
		return nil, err
	}
	st := &queryState{c: c, batch: batch, genS: genS}
	hotRng := newStream(b.seed, 500)
	for i := 0; i < hotPairs; i++ {
		src, dst := pair(hotRng, n)
		st.hot = append(st.hot, [2]int{src, dst})
	}
	for i := 0; i < min(queryClients, runtime.NumCPU()); i++ {
		tr := &http.Transport{}
		st.idle = append(st.idle, tr)
		var rt http.RoundTripper = tr
		if b.rec != nil {
			rt = &spanTransport{rec: b.rec, name: "client.roundtrip", orphanName: "client.roundtrip", inner: tr}
		}
		st.clients = append(st.clients, client.New(client.Options{Transport: rt, Seed: b.seed + int64(i)}))
		st.lanes = append(st.lanes, newStream(b.seed, i))
	}
	return st, nil
}

// nextBatch draws batchSize queries: half dist over uniform pairs, half
// path, of which hotShare come from the hot set (cache hits once warm) and
// the rest are uniform (misses). Sources are uniform either way, so every
// batch spans all three shards.
func (st *queryState) nextBatch(rng *rand.Rand) []query {
	n := st.c.g.N()
	qs := make([]query, batchSize)
	for i := range qs {
		src, dst := pair(rng, n)
		qs[i] = query{Kind: "dist", Src: src, Dst: dst}
		if i%2 == 1 {
			qs[i].Kind = "path"
			if rng.Float64() < hotShare {
				h := st.hot[rng.Intn(len(st.hot))]
				qs[i].Src, qs[i].Dst = h[0], h[1]
			}
		}
	}
	return qs
}

// request sends the workload's next request on lane i under parent (zero
// for none), checks the whole answer against the reference, and returns
// the time the client waited. The clock covers Client.Do alone: drawing
// the request and checking the answer are the caller's think time.
func (st *queryState) request(i int, parent spanRef) time.Duration {
	b, c, rng := st.c.b, st.c, st.lanes[i]
	b.attempted.Add(1)
	ctx := context.Background()
	method, url, ctype := http.MethodGet, "", ""
	var body []byte
	var qs []query
	if st.batch {
		qs = st.nextBatch(rng)
		body, _ = json.Marshal(map[string][]query{"queries": qs}) // plain structs: cannot fail
		method, url, ctype = http.MethodPost, c.url+"/batch", "application/json"
	} else {
		src, dst := pair(rng, c.g.N())
		qs = []query{{Src: src, Dst: dst}}
		url = c.url + "/dist?src=" + strconv.Itoa(src) + "&dst=" + strconv.Itoa(dst)
	}
	sp := b.rec.start("client.do", parent)
	if sp.rec != nil {
		ctx = withRef(ctx, sp.ref())
	}
	t0 := time.Now()
	resp, err := st.clients[i].Do(ctx, method, url, ctype, body)
	wait := time.Since(t0)
	sp.end()
	if err != nil || resp.Status != http.StatusOK {
		b.failed.Add(1)
		return wait
	}
	if !st.batch {
		c.checkDist(qs[0].Src, qs[0].Dst, resp.Body)
		return wait
	}
	var ans struct {
		Gen     uint64       `json:"gen"`
		Results []batchEntry `json:"results"`
	}
	if err := json.Unmarshal(resp.Body, &ans); err != nil || len(ans.Results) != len(qs) || ans.Gen == 0 {
		b.wrongf("/batch: unreadable or short answer %.80q", resp.Body)
		return wait
	}
	answered := true
	for j, q := range qs {
		answered = c.checkBatchEntry(q, ans.Results[j]) && answered
	}
	if !answered {
		b.failed.Add(1)
	}
	return wait
}

// checkBatchEntry judges one batch entry by the reference. It returns
// false for an entry the cluster failed to answer (an error the reference
// does not call for), which fails the request without making it wrong.
func (c *testCluster) checkBatchEntry(q query, e batchEntry) bool {
	want := c.ref[q.Src][q.Dst]
	if q.Kind == "path" && want >= graph.Inf {
		// No path exists: the right answer is the walker's 404.
		if e.Status != http.StatusNotFound {
			c.b.wrongf("/batch path (%d,%d) answered status %d path %v, reference says unreachable", q.Src, q.Dst, e.Status, e.Path)
		}
		return true
	}
	if e.Error != "" {
		return false
	}
	c.checkEntry("/batch "+q.Kind, q.Src, q.Dst, e.distAnswer)
	if q.Kind == "path" {
		c.checkWalk(q.Src, q.Dst, e.Path)
	}
	return true
}

// checkWalk walks a returned path: it runs from src to dst, every edge
// exists, and the weights sum to the reference distance.
func (c *testCluster) checkWalk(src, dst int, path []int) {
	b := c.b
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		b.wrongf("path (%d,%d) = %v does not join its endpoints", src, dst, path)
		return
	}
	var total int64
	for i := 1; i < len(path); i++ {
		if path[i-1] < 0 || path[i-1] >= c.g.N() || path[i] < 0 || path[i] >= c.g.N() {
			b.wrongf("path (%d,%d) = %v leaves the graph", src, dst, path)
			return
		}
		w, ok := c.g.Weight(path[i-1], path[i])
		if !ok {
			b.wrongf("path (%d,%d) uses the missing edge %d->%d", src, dst, path[i-1], path[i])
			return
		}
		total += w
	}
	if total != c.ref[src][dst] {
		b.wrongf("path (%d,%d) weighs %d, reference distance is %d", src, dst, total, c.ref[src][dst])
	}
}

// load runs the closed loop for the window: every client sends its next
// request when the previous answer has arrived and been checked. It
// returns the waits in microseconds.
func (st *queryState) load(window time.Duration, clients int) []float64 {
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var us []float64
			for time.Now().Before(deadline) {
				us = append(us, float64(st.request(i, spanRef{}))/1e3)
			}
			mu.Lock()
			all = append(all, us...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return all
}

func runQuery(b *bench, batch bool) error {
	st, err := setUp(b, func() (*queryState, error) {
		st, err := bootQuery(b, batch)
		if err != nil {
			return nil, err
		}
		st.load(queryWarmup, len(st.clients))
		return st, nil
	})
	if err != nil {
		return err
	}
	defer st.close()

	if !b.traced() {
		seg := b.budget / querySegments
		var qps, p50 []float64
		for i := 0; i < querySegments; i++ {
			us := st.load(seg, len(st.clients))
			qps = append(qps, float64(len(us))/seg.Seconds())
			p50 = append(p50, median(us)/1e3)
		}
		b.setMedian("op_ms", p50)
		b.setMedian("ops_per_s", qps)
		return nil
	}

	b.set("graph.gen_s", st.genS)
	b.set("graph.reference_s", st.c.refS)
	// 1. One serial client, one request in flight, for half the window,
	// in ten slices: the even ones untraced (client.serial_p50_us), the
	// odd ones traced. With one request in flight every span between its
	// start and end belongs to it. Interleaved, so that drift hits both.
	var serial, traced []float64
	for slice := 0; slice < 10; slice++ {
		if slice%2 == 0 {
			serial = append(serial, st.load(b.budget/20, 1)...)
			continue
		}
		b.rec.enable(true)
		for start := time.Now(); len(traced) < serialRequests && time.Since(start) < b.budget/20; {
			root := spanRef{Op: int64(len(traced) + 1)}
			traced = append(traced, float64(st.request(0, root))/1e3)
		}
		b.rec.enable(false)
	}
	b.setMedian("client.serial_p50_us", serial)
	b.set("trace.overhead_pct", 100*ratio(median(traced)-median(serial), median(serial)))
	if err := reportSpanTree(b); err != nil {
		return err
	}

	// 2. Under load: the closed loop of the untraced run, with counters
	// read before and after.
	if err := st.underLoad(b, b.budget*40/100); err != nil {
		return err
	}

	// 3. The same stream straight into the store, no HTTP at all.
	st.lookups(b, b.budget*10/100)
	return nil
}

// reportSpanTree attributes every traced request's client.do span to the
// layers below it. The levels nest, parallel backend calls count by their
// union, and so the five self times sum to the request's duration.
func reportSpanTree(b *bench) error {
	levels := []string{"client.roundtrip", "router.handler", "router.backend_rt", "backend.handler"}
	names := []string{"client.self_us", "nethttp.front_self_us", "cluster.self_us", "nethttp.back_self_us", "oracle.handler_us"}
	byOp := map[int64][]span{}
	for _, s := range b.rec.all() {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	self := make([][]float64, len(names))
	var residual, calls, overlap []float64
	for op, spans := range byOp {
		var root *span
		var rts []span
		for i := range spans {
			switch spans[i].Name {
			case "client.do":
				root = &spans[i]
			case "router.backend_rt":
				rts = append(rts, spans[i])
			}
		}
		if op == 0 || root == nil {
			continue
		}
		parts := levelSelf(*root, spans, levels)
		total := int64(0)
		for i, p := range parts {
			if p == 0 {
				return fmt.Errorf("request %d: no %s time in its span tree (%d spans): propagation is broken", op, names[i], len(spans))
			}
			self[i] = append(self[i], float64(p)/1e3)
			total += p
		}
		residual = append(residual, float64(root.dur()-total)/1e3)
		var sumRT int64
		for _, rt := range rts {
			sumRT += rt.dur()
		}
		calls = append(calls, float64(len(rts)))
		overlap = append(overlap, ratio(float64(sumRT), float64(unionLen(rts, root.Start, root.End))))
	}
	if len(residual) == 0 {
		return fmt.Errorf("the traced replay recorded no client.do span")
	}
	for i, name := range names {
		b.setMedian(name, self[i])
	}
	b.set("span.residual_us", maxOf(residual))
	b.setMedian("cluster.backend_calls_per_req", calls)
	b.setMedian("cluster.scatter_overlap", overlap)
	return nil
}

// underLoad runs the closed loop and reports what the layers' own
// counters, the Go runtime and getrusage saw over it.
func (st *queryState) underLoad(b *bench, window time.Duration) error {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	type counters struct {
		router, backends map[string]float64
		clientStats      client.Stats
		hits, misses     uint64
		mem              runtime.MemStats
		cpu              float64
	}
	read := func() (counters, error) {
		var c counters
		var err error
		if c.router, err = scrape(hc, st.c.url); err != nil {
			return c, err
		}
		c.backends = map[string]float64{}
		for _, be := range st.c.backends {
			m, err := scrape(hc, be.base)
			if err != nil {
				return c, err
			}
			for k, v := range m {
				c.backends[k] += v
			}
			h, mi, _ := be.srv.Cache.Stats()
			c.hits, c.misses = c.hits+h, c.misses+mi
		}
		for _, cl := range st.clients {
			c.clientStats.Retries += cl.Snapshot().Retries
		}
		runtime.ReadMemStats(&c.mem)
		c.cpu = cpuSeconds()
		return c, nil
	}
	before, err := read()
	if err != nil {
		return err
	}
	us := st.load(window, len(st.clients))
	after, err := read()
	if err != nil {
		return err
	}
	reqs := float64(len(us))
	perReq := 1.0
	if st.batch {
		perReq = batchSize
	}
	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	b.set("client.p99_us", quantile(sorted(us), 0.99))
	b.set("client.retries_per_req", float64(after.clientStats.Retries-before.clientStats.Retries)/reqs)
	b.set("cluster.hedges_per_req", delta(before.router, after.router, "router_client_hedges_total")/reqs)
	b.set("oracle.shed_share", ratio(delta(before.backends, after.backends, "apspd_shed_total"),
		delta(before.backends, after.backends, "apspd_queries_total")))
	b.set("oracle.cache_hit_ratio", ratio(hits, hits+misses))
	b.set("proc.allocs_per_req", float64(after.mem.Mallocs-before.mem.Mallocs)/reqs)
	b.set("proc.alloc_kb_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/reqs)
	b.set("proc.cpu_us_per_req", (after.cpu-before.cpu)*1e6/reqs)
	b.set("query.lookups_per_s", reqs*perReq/window.Seconds())
	return nil
}

// lookupSink keeps the compiler from discarding the lookups.
var lookupSink int64

// lookups replays the workload's stream straight into the shard
// snapshots: Row + DistAt for a dist query, Path (uncached) for a path
// query. What is left of a request's time above this is overhead.
func (st *queryState) lookups(b *bench, window time.Duration) {
	n := st.c.g.N()
	snaps := make([]*oracle.Snapshot, n)
	for _, be := range st.c.backends {
		snap := be.srv.Store.Current()
		for _, s := range snap.Sources() {
			snaps[s] = snap
		}
	}
	// Time a few thousand lookups at a stretch: one DistAt is shorter than
	// a clock read.
	rng := newStream(b.seed, 0)
	var count int
	var spent time.Duration
	for start := time.Now(); time.Since(start) < window; {
		var qs []query
		for len(qs) < 4096 {
			if st.batch {
				qs = append(qs, st.nextBatch(rng)...)
			} else {
				src, dst := pair(rng, n)
				qs = append(qs, query{Kind: "dist", Src: src, Dst: dst})
			}
		}
		t0 := time.Now()
		for _, q := range qs {
			snap := snaps[q.Src]
			row, _ := snap.Row(q.Src)
			if q.Kind == "path" {
				p, _ := snap.Path(row, q.Dst) // unreachable pairs are part of the stream
				lookupSink += int64(len(p))
			} else {
				lookupSink += snap.DistAt(row, q.Dst)
			}
		}
		spent += time.Since(t0)
		count += len(qs)
	}
	b.set("oracle.lookup_ns", ratio(float64(spent), float64(count)))
}
