package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/httpfault"
	"repro/internal/oracle"
)

func init() { register("E-CLUSTER", eCluster) }

// eCluster is the multi-process cluster drill: three shard backends on
// real TCP listeners behind the scatter-gather router, each owning a
// third of the source dimension. Three phases:
//
//	clean    serial /dist + /batch load through the router on a perfect
//	         transport — zero errors, zero wrong answers, every /batch
//	         assembled from one generation.
//	kill     concurrent load through a chaos transport (httpfault.All);
//	         mid-load one backend is killed abruptly (no drain) and
//	         restored from its autosave directory on the same port. The
//	         router's retries, hedging and per-shard breaker bridge the
//	         outage: zero wrong answers, >=50%% availability.
//	rollout  POST /admin/recompute drains the cluster shard-by-shard
//	         while mixed /dist + /batch load runs. Every 200 answer
//	         validates and names a single generation; mixed-generation
//	         refusals (503) are counted and allowed, torn answers are not.
//
// Every 200 answer in every phase is checked against per-source Dijkstra
// reference distances, so the experiment is a zero-wrong-answers gate for
// the whole cluster layer.
func eCluster(cfg Config) (*Table, error) {
	n, m := 120, 480
	cleanQ, killQ, rollQ := 600, 900, 300
	workers := 6
	if cfg.Small {
		n, m = 48, 192
		cleanQ, killQ, rollQ = 200, 300, 120
		workers = 4
	}
	const nShards = 3

	g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	// Reference matrix: the validation oracle for every phase.
	ref := make([][]int64, n)
	for s := 0; s < n; s++ {
		ref[s] = graph.Dijkstra(g, s)
	}

	cl, err := startExpCluster(g, nShards, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer cl.close()

	t := &Table{
		ID:      "E-CLUSTER",
		Title:   "oracle cluster: scatter-gather routing, backend kill under chaos, generation-aware rollout",
		Headers: []string{"phase", "queries", "ok", "errors", "wrong", "refused", "detail"},
	}

	// -- clean ------------------------------------------------------------
	clean := newClusterLoad(ref)
	for q := 0; q < cleanQ; q++ {
		if q%10 == 9 {
			clean.batch(cl.cleanURL, cl.stream(q), 4)
		} else {
			src, dst := cl.stream(q)()
			clean.dist(cl.cleanURL, src, dst)
		}
	}
	if clean.errors() != 0 || clean.wrong.Load() != 0 {
		return nil, fmt.Errorf("clean phase: %d errors, %d wrong answers on a perfect transport",
			clean.errors(), clean.wrong.Load())
	}
	t.AddRow("clean", clean.total.Load(), clean.ok.Load(), clean.errors(), clean.wrong.Load(), clean.refused.Load(), "serial, no faults")

	// -- kill -------------------------------------------------------------
	kill := newClusterLoad(ref)
	var (
		resolved atomic.Int64
		wg       sync.WaitGroup
	)
	perWorker := killQ / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := cl.stream(1000 + w)
			for q := 0; q < perWorker; q++ {
				src, dst := next()
				kill.dist(cl.chaosURL, src, dst)
				resolved.Add(1)
			}
		}(w)
	}
	// Kill -9, in process: once half the load has resolved, close every
	// connection of backend 1 without draining, then restore a recovered
	// server from its autosave directory on the same port.
	victim := 1
	for resolved.Load() < int64(perWorker*workers/2) {
		time.Sleep(time.Millisecond)
	}
	cl.backends[victim].hs.Close()
	if err := cl.restore(victim, g); err != nil {
		return nil, fmt.Errorf("kill phase: %w", err)
	}
	wg.Wait()
	if kill.wrong.Load() != 0 {
		return nil, fmt.Errorf("kill phase: %d wrong answers slipped through the cluster layer", kill.wrong.Load())
	}
	if int(kill.ok.Load()) < perWorker*workers/2 {
		return nil, fmt.Errorf("kill phase: only %d/%d queries survived the backend kill", kill.ok.Load(), perWorker*workers)
	}
	t.AddRow("kill", kill.total.Load(), kill.ok.Load(), kill.errors(), kill.wrong.Load(), kill.refused.Load(),
		fmt.Sprintf("backend %d killed+recovered, chaos transport, %d workers", victim, workers))

	// -- rollout ----------------------------------------------------------
	roll := newClusterLoad(ref)
	preGens, err := cl.shardGens()
	if err != nil {
		return nil, fmt.Errorf("rollout phase: %w", err)
	}
	resp, err := http.Post(cl.cleanURL+"/admin/recompute", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("rollout trigger: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("rollout trigger answered %d, want 202", resp.StatusCode)
	}
	for q := 0; q < rollQ; q++ {
		if q%5 == 4 {
			roll.batch(cl.cleanURL, cl.stream(2000+q), 4)
		} else {
			src, dst := cl.stream(2000 + q)()
			roll.dist(cl.cleanURL, src, dst)
		}
	}
	if err := cl.awaitRollout(preGens, 60*time.Second); err != nil {
		return nil, fmt.Errorf("rollout phase: %w", err)
	}
	if roll.wrong.Load() != 0 {
		return nil, fmt.Errorf("rollout phase: %d torn or wrong answers during the drain", roll.wrong.Load())
	}
	t.AddRow("rollout", roll.total.Load(), roll.ok.Load(), roll.errors(), roll.wrong.Load(), roll.refused.Load(),
		"shard-by-shard recompute drain, load concurrent with the swap")

	t.Note("n=%d over %d shard backends on real TCP listeners, one source-range shard each; every 200 answer checked against per-source Dijkstra (zero-wrong-answers gate)", n, nShards)
	t.Note("kill phase: httpfault.All chaos on the router->backend transport plus an abrupt (no-drain) backend kill and autosave recovery; the >=50%% availability and zero-wrong bounds are the asserted part")
	t.Note("rollout phase: /batch answers carry one generation by construction; 'refused' counts 503 mixed-generation refusals (allowed), a torn answer would fail the run")
	return t, nil
}

// expBackend is one shard backend on a real listener.
type expBackend struct {
	srv  *oracle.Server
	hs   *http.Server
	addr string
	base string
	dir  string
	k    int
}

// expCluster is the full topology: backends, their shard map, and two
// routers over the same backends — one on a perfect transport, one
// through a chaos injector.
type expCluster struct {
	backends []*expBackend
	m        *cluster.Map
	nShards  int
	seed     int64

	cleanFront *http.Server
	chaosFront *http.Server
	cleanURL   string
	chaosURL   string
	httpc      *http.Client
	dirs       []string
}

// expShardSnap builds shard k's snapshot from per-source Dijkstra trees.
func expShardSnap(g *graph.Graph, k, nShards int) (*oracle.Snapshot, error) {
	lo, hi := cluster.Range(g.N(), k, nShards)
	sources := make([]int, 0, hi-lo)
	dist := make([][]int64, 0, hi-lo)
	parent := make([][]int, 0, hi-lo)
	for s := lo; s < hi; s++ {
		d, p := graph.DijkstraTree(g, s)
		sources = append(sources, s)
		dist = append(dist, d)
		parent = append(parent, p)
	}
	return oracle.Build(g, oracle.BuildInput{Alg: "dijkstra", Matrix: family.FromRows(sources, g.N(), dist, nil, parent)},
		oracle.BuildOpts{Fingerprint: checkpoint.Fingerprint(g)})
}

func startExpCluster(g *graph.Graph, nShards int, seed int64) (*expCluster, error) {
	cl := &expCluster{nShards: nShards, seed: seed, httpc: &http.Client{Timeout: 10 * time.Second}}
	replicaSets := make([][]string, nShards)
	for k := 0; k < nShards; k++ {
		dir, err := os.MkdirTemp("", "ecluster-autosave-")
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.dirs = append(cl.dirs, dir)
		b, err := cl.startBackend(g, k, dir)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.backends = append(cl.backends, b)
		replicaSets[k] = []string{b.base}
	}
	m, err := cluster.NewContiguous(g.N(), fmt.Sprintf("%016x", checkpoint.Fingerprint(g)), replicaSets)
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.m = m

	serveRouter := func(inner http.RoundTripper, attempts int) (*http.Server, string, error) {
		router, err := cluster.NewRouter(cluster.Options{
			Map:            m,
			Inner:          inner,
			AttemptTimeout: 50 * time.Millisecond,
			MaxAttempts:    attempts,
			HedgeDelay:     10 * time.Millisecond,
			Seed:           seed,
			RolloutPoll:    10 * time.Millisecond,
			RolloutTimeout: 60 * time.Second,
		})
		if err != nil {
			return nil, "", err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		hs := &http.Server{Handler: router.Handler()}
		go hs.Serve(ln)
		return hs, "http://" + ln.Addr().String(), nil
	}
	if cl.cleanFront, cl.cleanURL, err = serveRouter(nil, 4); err != nil {
		cl.close()
		return nil, err
	}
	chaos := &httpfault.Transport{Plan: httpfault.All(seed), Inner: &http.Transport{}}
	if cl.chaosFront, cl.chaosURL, err = serveRouter(chaos, 4); err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

// startBackend boots shard k's oracle server on a fresh port with
// autosave wired (the crash-recovery substrate the kill phase stands on).
func (cl *expCluster) startBackend(g *graph.Graph, k int, dir string) (*expBackend, error) {
	snap, err := expShardSnap(g, k, cl.nShards)
	if err != nil {
		return nil, err
	}
	b := &expBackend{dir: dir, k: k}
	b.srv = cl.newShardServer(g, k, dir)
	b.srv.Publish(snap)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.addr = ln.Addr().String()
	b.base = "http://" + b.addr
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go b.hs.Serve(ln)
	return b, nil
}

func (cl *expCluster) newShardServer(g *graph.Graph, k int, dir string) *oracle.Server {
	return &oracle.Server{
		Store: &oracle.Store{}, Cache: oracle.NewPathCache(4096), Met: oracle.NewMetrics(),
		ShardID: cluster.FormatShardID(k, cl.nShards),
		Recompute: func(ctx context.Context) (*oracle.Snapshot, error) {
			return expShardSnap(g, k, cl.nShards)
		},
		AfterPublish: func(s *oracle.Snapshot) { oracle.SaveToDir(dir, s) },
	}
}

// restore brings the killed backend back on the same port from its
// autosave directory (oracle.RecoverDir quarantines corrupt files).
func (cl *expCluster) restore(k int, g *graph.Graph) error {
	b := cl.backends[k]
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	rec, path, err := oracle.RecoverDir(b.dir, g, checkpoint.Fingerprint(g), discard)
	if err != nil {
		return fmt.Errorf("recovering autosave: %w", err)
	}
	if rec == nil || path == "" {
		return fmt.Errorf("no autosave to recover from (dir %s)", b.dir)
	}
	srv := cl.newShardServer(g, k, b.dir)
	srv.Publish(rec)
	var ln net.Listener
	for {
		ln, err = net.Listen("tcp", b.addr)
		if err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.srv = srv
	b.hs = &http.Server{Handler: srv.Handler()}
	go b.hs.Serve(ln)
	return nil
}

// shardGens probes the router /healthz for each shard's generation.
func (cl *expCluster) shardGens() (map[int]uint64, error) {
	resp, err := cl.httpc.Get(cl.cleanURL + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h struct {
		Shards []struct {
			ID  int    `json:"id"`
			Gen uint64 `json:"gen"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	gens := map[int]uint64{}
	for _, s := range h.Shards {
		gens[s.ID] = s.Gen
	}
	return gens, nil
}

// awaitRollout polls until every shard's generation has advanced past its
// pre-rollout value and the router reports the drain finished.
func (cl *expCluster) awaitRollout(pre map[int]uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := cl.httpc.Get(cl.cleanURL + "/healthz")
		if err == nil {
			var h struct {
				Status  string `json:"status"`
				Rollout bool   `json:"rollout"`
				Shards  []struct {
					ID  int    `json:"id"`
					Gen uint64 `json:"gen"`
				} `json:"shards"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && !h.Rollout && h.Status == "ok" {
				advanced := len(h.Shards) == cl.nShards
				for _, s := range h.Shards {
					if s.Gen <= pre[s.ID] {
						advanced = false
					}
				}
				if advanced {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rollout did not complete within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (cl *expCluster) close() {
	if cl.cleanFront != nil {
		cl.cleanFront.Close()
	}
	if cl.chaosFront != nil {
		cl.chaosFront.Close()
	}
	for _, b := range cl.backends {
		if b.hs != nil {
			b.hs.Close()
		}
	}
	for _, d := range cl.dirs {
		os.RemoveAll(d)
	}
}

// stream is a deterministic (src, dst) stream over the whole source
// dimension — queries cross shard boundaries by construction.
func (cl *expCluster) stream(worker int) func() (src, dst int) {
	n := cl.m.N
	x := uint64(cl.seed)*0x9e3779b97f4a7c15 + uint64(worker+1)*0xbf58476d1ce4e5b9
	return func() (src, dst int) {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n)), int(x % uint64(n))
	}
}

// clusterLoad aggregates one phase's validated load.
type clusterLoad struct {
	ref                       [][]int64
	total, ok, wrong, refused atomic.Int64
	httpc                     *http.Client
}

func newClusterLoad(ref [][]int64) *clusterLoad {
	return &clusterLoad{ref: ref, httpc: &http.Client{Timeout: 10 * time.Second}}
}

func (l *clusterLoad) errors() int64 { return l.total.Load() - l.ok.Load() }

// dist issues one validated /dist through the router. A non-200 is an
// error; a 200 disagreeing with the reference matrix is wrong.
func (l *clusterLoad) dist(base string, src, dst int) {
	l.total.Add(1)
	resp, err := l.httpc.Get(fmt.Sprintf("%s/dist?src=%d&dst=%d", base, src, dst))
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return
	}
	var d oracle.Answer
	if json.Unmarshal(body, &d) != nil {
		l.wrong.Add(1)
		return
	}
	l.ok.Add(1)
	if bad := l.check(src, dst, d.Reachable, d.Dist); bad {
		l.wrong.Add(1)
	}
}

// batch issues one validated /batch of `size` queries through the router.
// A 503 refusal counts as refused (the generation gate working as
// designed); per-query 502 entries count the batch as an error; any
// mismatched 200 payload is wrong.
func (l *clusterLoad) batch(base string, next func() (int, int), size int) {
	l.total.Add(1)
	qs := make([]oracle.Query, size)
	for i := range qs {
		qs[i].Src, qs[i].Dst = next()
	}
	body, _ := json.Marshal(oracle.Batch{Queries: qs})
	resp, err := l.httpc.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusServiceUnavailable {
		l.refused.Add(1)
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	var out struct {
		Gen     uint64          `json:"gen"`
		Results []oracle.Answer `json:"results"`
	}
	if json.Unmarshal(raw, &out) != nil || len(out.Results) != size || out.Gen == 0 {
		l.wrong.Add(1)
		return
	}
	allClean := true
	for i, r := range out.Results {
		if r.Src != qs[i].Src || r.Dst != qs[i].Dst {
			l.wrong.Add(1)
			return
		}
		if r.Error != "" {
			allClean = false
			continue
		}
		if l.check(r.Src, r.Dst, r.Reachable, r.Dist) {
			l.wrong.Add(1)
			return
		}
	}
	if allClean {
		l.ok.Add(1)
	}
}

// check returns true when the answer disagrees with the reference matrix.
func (l *clusterLoad) check(src, dst int, reachable bool, dist *int64) bool {
	want := l.ref[src][dst]
	if want >= graph.Inf {
		return reachable || dist != nil
	}
	return dist == nil || *dist != want
}
