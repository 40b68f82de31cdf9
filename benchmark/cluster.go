package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// backend is one shard's apspd, in process on a real loopback listener,
// wired the way cmd/apspd wires it: Recompute is oracle.Compute on the
// parallel backend over the shard's source range followed by oracle.Build,
// AfterPublish is the autosave.
type backend struct {
	srv  *oracle.Server
	hs   *http.Server
	base string
	dir  string // autosave directory ("" = no autosave)

	// publish spans Recompute's return to AfterPublish's entry; only the
	// backend's single-flight recompute goroutine touches it.
	publish openSpan
}

// testCluster is the topology of the rebuild and query workloads: shard
// backends behind a cluster.Router, everything on 127.0.0.1.
type testCluster struct {
	b        *bench
	g        *graph.Graph
	ref      [][]int64
	fp       uint64
	backends []*backend
	front    *http.Server
	url      string
	scratch  string

	refS float64 // seconds graph.APSP took for the reference matrix
}

// bootCluster generates nothing: it computes the reference matrix, builds
// and publishes every shard's first snapshot, and starts the listeners.
func bootCluster(b *bench, g *graph.Graph, shards int, autosave bool) (*testCluster, error) {
	c := &testCluster{b: b, g: g, fp: checkpoint.Fingerprint(g)}
	t0 := time.Now()
	c.ref = graph.APSP(g)
	c.refS = time.Since(t0).Seconds()
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	if autosave {
		dir, err := os.MkdirTemp(b.outDir, "autosave-")
		if err != nil {
			return nil, err
		}
		c.scratch = dir
	}
	replicas := make([][]string, shards)
	for k := 0; k < shards; k++ {
		be, err := c.startBackend(k, shards)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		c.backends = append(c.backends, be)
		replicas[k] = []string{be.base}
	}
	m, err := cluster.NewContiguous(g.N(), fmt.Sprintf("%016x", c.fp), replicas)
	if err != nil {
		return nil, err
	}
	// Inner stays nil on an untraced run, as cmd/apsprouter leaves it.
	var inner http.RoundTripper
	if c.b.rec != nil {
		inner = &spanTransport{rec: c.b.rec, name: "router.backend_rt", orphanName: "router.admin_rt", inner: http.DefaultTransport}
	}
	router, err := cluster.NewRouter(cluster.Options{Map: m, Inner: inner, Seed: b.seed, RolloutPoll: rolloutPoll})
	if err != nil {
		return nil, err
	}
	c.front, c.url, err = serve(c.b.rec.handler("router.handler", router.Handler()))
	if err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed when close() shuts it
	return hs, "http://" + ln.Addr().String(), nil
}

func (c *testCluster) startBackend(k, shards int) (*backend, error) {
	be := &backend{}
	if c.scratch != "" {
		be.dir = filepath.Join(c.scratch, fmt.Sprintf("shard-%d", k))
		if err := os.Mkdir(be.dir, 0o755); err != nil {
			return nil, err
		}
	}
	lo, hi := cluster.Range(c.g.N(), k, shards)
	sources := make([]int, 0, hi-lo)
	for s := lo; s < hi; s++ {
		sources = append(sources, s)
	}
	be.srv = &oracle.Server{
		Store: &oracle.Store{}, Cache: oracle.NewPathCache(pathCacheSize), Met: oracle.NewMetrics(),
		ShardID: cluster.FormatShardID(k, shards),
		Recompute: func(ctx context.Context) (*oracle.Snapshot, error) {
			return c.rebuildShard(ctx, be, sources)
		},
	}
	if be.dir != "" {
		be.srv.AfterPublish = func(s *oracle.Snapshot) { c.autosave(be, s) }
	}
	snap, err := be.srv.Recompute(context.Background())
	if err != nil {
		return nil, err
	}
	be.srv.Publish(snap)
	be.hs, be.base, err = serve(c.b.rec.handler("backend.handler", be.srv.Handler()))
	return be, err
}

// rebuildShard is the harness-owned Recompute closure, with a span around
// each call into a layer.
func (c *testCluster) rebuildShard(ctx context.Context, be *backend, sources []int) (*oracle.Snapshot, error) {
	op := c.b.rec.current()
	var m0, m1 runtime.MemStats
	if c.b.rec.enabled() {
		runtime.ReadMemStats(&m0)
	}
	sp := c.b.rec.start("compute.apsp", op)
	in, err := oracle.Compute(ctx, c.g, oracle.ComputeSpec{Alg: "pipeline", Backend: "parallel", Sources: sources})
	if err != nil {
		return nil, err
	}
	if c.b.rec.enabled() {
		runtime.ReadMemStats(&m1)
		sp.attr("sources", float64(len(sources)))
		sp.attr("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if in.Alg == "parallel/floyd" {
			sp.attr("floyd", 1)
		}
	}
	sp.end()

	sp = c.b.rec.start("oracle.build", op)
	snap, err := oracle.Build(c.g, in, oracle.BuildOpts{Fingerprint: c.fp})
	sp.end()
	if err != nil {
		return nil, err
	}
	be.publish = c.b.rec.start("oracle.publish", op)
	return snap, nil
}

// autosave is the AfterPublish hook: cmd/apspd's SaveToDir + Prune.
func (c *testCluster) autosave(be *backend, snap *oracle.Snapshot) {
	be.publish.end()
	sp := c.b.rec.start("oracle.save", c.b.rec.current())
	path, err := oracle.SaveToDir(be.dir, snap)
	if err == nil {
		err = oracle.Prune(be.dir, autosaveKeep)
	}
	if err != nil {
		// apspd logs and serves on; here a failed save is a failed op.
		fmt.Fprintln(os.Stderr, "benchmark: autosave:", err)
		c.b.failed.Add(1)
	} else if info, serr := os.Stat(path); serr == nil {
		sp.attr("bytes", float64(info.Size()))
	}
	sp.end()
}

func (c *testCluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	for _, be := range c.backends {
		if be.hs != nil {
			be.hs.Close()
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if c.scratch != "" {
		os.RemoveAll(c.scratch)
	}
}

// health is the slice of the router's /healthz the harness reads.
type health struct {
	Status  string `json:"status"`
	Rollout bool   `json:"rollout"`
	Shards  []struct {
		ID  int    `json:"id"`
		Gen uint64 `json:"gen"`
	} `json:"shards"`
}

func (c *testCluster) health(hc *http.Client) (health, error) {
	var h health
	resp, err := hc.Get(c.url + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("router /healthz: %w", err)
	}
	return h, nil
}

// rollout is one operator rebuild: POST /admin/recompute at the router,
// done when the router reports no rollout in progress and every shard's
// generation has advanced. Backends clear their recomputing flag only
// after AfterPublish returns, so the time includes every autosave.
func (c *testCluster) rollout(hc *http.Client, pre health) (time.Duration, error) {
	gens := map[int]uint64{}
	for _, s := range pre.Shards {
		gens[s.ID] = s.Gen
	}
	t0 := time.Now()
	resp, err := hc.Post(c.url+"/admin/recompute", "application/json", nil)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /admin/recompute answered %d, want 202", resp.StatusCode)
	}
	for deadline := t0.Add(2 * time.Minute); ; {
		time.Sleep(rolloutPoll)
		h, err := c.health(hc)
		if err != nil {
			return 0, err
		}
		if h.Rollout {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("rollout did not complete in 2 minutes: %+v", h)
			}
			continue
		}
		// The router set its rollout flag before it answered 202, so a
		// clear flag means the rollout ended: completed or aborted.
		for _, s := range h.Shards {
			if s.Gen <= gens[s.ID] {
				return 0, fmt.Errorf("rollout ended with shard %d still at generation %d", s.ID, s.Gen)
			}
		}
		if h.Status != "ok" || len(h.Shards) != len(c.backends) {
			return 0, fmt.Errorf("cluster unhealthy after rollout: %+v", h)
		}
		return time.Since(t0), nil
	}
}

// distAnswer is the /dist body.
type distAnswer struct {
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Reachable bool   `json:"reachable"`
	Dist      *int64 `json:"dist"`
}

// checkDist judges one /dist answer by the reference matrix.
func (c *testCluster) checkDist(src, dst int, body []byte) {
	var a distAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		c.b.wrongf("/dist?src=%d&dst=%d: unreadable answer %.80q", src, dst, body)
		return
	}
	c.checkEntry("/dist", src, dst, a)
}

func (c *testCluster) checkEntry(what string, src, dst int, a distAnswer) {
	want := c.ref[src][dst]
	switch {
	case a.Src != src || a.Dst != dst:
		c.b.wrongf("%s (%d,%d) answered for (%d,%d)", what, src, dst, a.Src, a.Dst)
	case want >= graph.Inf && (a.Reachable || a.Dist != nil):
		c.b.wrongf("%s (%d,%d) reachable, reference says unreachable", what, src, dst)
	case want < graph.Inf && (a.Dist == nil || *a.Dist != want):
		c.b.wrongf("%s (%d,%d) = %v, reference says %d", what, src, dst, a.Dist, want)
	}
}

// verifyReads sends count random /dist through the router from at most
// nproc goroutines and checks each against the reference.
func (c *testCluster) verifyReads(hc *http.Client, count int, seed int64) {
	workers := min(queryClients, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := newStream(seed, w)
			for i := w; i < count; i += workers {
				src, dst := pair(rng, c.g.N())
				c.getDist(hc, src, dst)
			}
		}(w)
	}
	wg.Wait()
}

// getDist issues one checked GET /dist with a plain HTTP client and
// reports whether it was answered.
func (c *testCluster) getDist(hc *http.Client, src, dst int) bool {
	b := c.b
	b.attempted.Add(1)
	resp, err := hc.Get(c.url + "/dist?src=" + strconv.Itoa(src) + "&dst=" + strconv.Itoa(dst))
	if err != nil {
		b.failed.Add(1)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.failed.Add(1)
		return false
	}
	c.checkDist(src, dst, body)
	return true
}

// scrape sums, per metric name, every series of a /metrics page (the
// labels are dropped: the harness wants totals).
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}

// newStream is the seeded source of one lane's query pairs. Inputs derive
// from the seed alone, so a run can be repeated.
func newStream(seed int64, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(lane)))
}

func pair(rng *rand.Rand, n int) (src, dst int) { return rng.Intn(n), rng.Intn(n) }
