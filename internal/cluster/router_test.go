package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// testCluster is an in-process cluster: real oracle servers behind real
// httptest listeners, fronted by a Router behind its own listener —
// everything the production topology has except separate processes.
type testCluster struct {
	g       *graph.Graph
	m       *Map
	servers [][]*oracle.Server   // [shard][replica]
	back    [][]*httptest.Server // [shard][replica]
	live    [][]*swapHandler     // [shard][replica]: the process behind back
	router  *Router
	front   *httptest.Server
}

// buildShardSnapE computes shard k's snapshot with the reference solver:
// one Dijkstra tree per owned source, exactly what apspd -shard serves.
func buildShardSnapE(g *graph.Graph, k, nShards int) (*oracle.Snapshot, error) {
	lo, hi := Range(g.N(), k, nShards)
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

func buildShardSnap(t *testing.T, g *graph.Graph, k, nShards int) *oracle.Snapshot {
	t.Helper()
	snap, err := buildShardSnapE(g, k, nShards)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// startCluster boots nShards shards with `replicas` servers each over a
// seeded random graph, and a router over them. opts.Map and opts.Seed are
// filled in; everything else is the caller's.
func startCluster(t *testing.T, n, nShards, replicas int, opts Options) *testCluster {
	t.Helper()
	tc := &testCluster{g: graph.Random(n, 4*n, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.25, Directed: true})}
	replicaSets := make([][]string, nShards)
	for k := 0; k < nShards; k++ {
		snap := buildShardSnap(t, tc.g, k, nShards)
		var srvs []*oracle.Server
		var backs []*httptest.Server
		var lives []*swapHandler
		for r := 0; r < replicas; r++ {
			k := k
			srv := &oracle.Server{
				Store: &oracle.Store{}, Cache: oracle.NewPathCache(1024),
				Met: oracle.NewMetrics(), ShardID: FormatShardID(k, nShards),
				Recompute: func(ctx context.Context) (*oracle.Snapshot, error) {
					return buildShardSnapE(tc.g, k, nShards)
				},
			}
			srv.Publish(snap)
			h := &swapHandler{}
			h.set(srv.Handler())
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			srvs = append(srvs, srv)
			backs = append(backs, ts)
			lives = append(lives, h)
			replicaSets[k] = append(replicaSets[k], ts.URL)
		}
		tc.servers = append(tc.servers, srvs)
		tc.back = append(tc.back, backs)
		tc.live = append(tc.live, lives)
	}
	m, err := NewContiguous(n, fmt.Sprintf("%016x", checkpoint.Fingerprint(tc.g)), replicaSets)
	if err != nil {
		t.Fatal(err)
	}
	tc.m = m
	opts.Map = m
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	router, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = router
	tc.front = httptest.NewServer(router.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

// swapHandler is a backend's process behind its listener: a test replaces
// it to kill and restart the backend at the same address.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

func getJSON(t *testing.T, url string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestRouterRoutesQueries: every (src, dst) answered through the router
// matches the reference solver, whichever shard owns the source, and the
// generation/shard headers survive the hop.
func TestRouterRoutesQueries(t *testing.T) {
	tc := startCluster(t, 24, 3, 1, Options{})
	for src := 0; src < tc.g.N(); src++ {
		want := graph.Dijkstra(tc.g, src)
		for _, dst := range []int{0, 5, 11, 23} {
			var d struct {
				Reachable bool   `json:"reachable"`
				Dist      *int64 `json:"dist"`
				Gen       uint64 `json:"gen"`
			}
			status, hdr := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=%d", tc.front.URL, src, dst), &d)
			if status != http.StatusOK {
				t.Fatalf("dist(%d,%d) status %d", src, dst, status)
			}
			switch {
			case want[dst] >= graph.Inf:
				if d.Reachable {
					t.Fatalf("dist(%d,%d) should be unreachable, got %+v", src, dst, d)
				}
			case d.Dist == nil || *d.Dist != want[dst]:
				t.Fatalf("dist(%d,%d) = %+v, Dijkstra %d", src, dst, d, want[dst])
			}
			if hdr.Get(oracle.GenHeader) != "1" {
				t.Fatalf("dist(%d,%d) gen header %q, want 1", src, dst, hdr.Get(oracle.GenHeader))
			}
			wantShard := FormatShardID(tc.m.ShardFor(src).ID, 3)
			if hdr.Get(oracle.ShardHeader) != wantShard {
				t.Fatalf("dist(%d,%d) shard header %q, want %q", src, dst, hdr.Get(oracle.ShardHeader), wantShard)
			}
		}
	}

	// /path forwards the same way.
	var p struct {
		Path []int `json:"path"`
		Dist int64 `json:"dist"`
	}
	if status, _ := getJSON(t, tc.front.URL+"/path?src=20&dst=3", &p); status != http.StatusOK && status != http.StatusNotFound {
		t.Fatalf("path status %d", status)
	}

	// Cluster health: all shards up, fingerprints agree.
	var h clusterHealth
	if status, _ := getJSON(t, tc.front.URL+"/healthz", &h); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", status, h)
	}
	if len(h.Shards) != 3 {
		t.Fatalf("healthz shards %+v", h.Shards)
	}
}

// TestRouterBatchScatter: one /batch spanning all shards comes back in
// request order, each answer from the owning shard, with per-query 404
// entries for sources outside the map.
func TestRouterBatchScatter(t *testing.T) {
	tc := startCluster(t, 24, 3, 1, Options{})
	type q struct {
		Kind string `json:"kind,omitempty"`
		Src  int    `json:"src"`
		Dst  int    `json:"dst"`
	}
	qs := []q{{Src: 0, Dst: 5}, {Src: 23, Dst: 1}, {Src: 9, Dst: 9}, {Src: 99, Dst: 0}, {Kind: "path", Src: 15, Dst: 2}, {Src: 3, Dst: 17}}
	body, _ := json.Marshal(map[string]any{"queries": qs})
	resp, err := http.Post(tc.front.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Gen     uint64 `json:"gen"`
		Results []struct {
			Src    int    `json:"src"`
			Dst    int    `json:"dst"`
			Dist   *int64 `json:"dist"`
			Path   []int  `json:"path"`
			Error  string `json:"error"`
			Status int    `json:"status"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("batch answer %q: %v", raw, err)
	}
	if out.Gen != 1 || len(out.Results) != len(qs) {
		t.Fatalf("batch gen=%d results=%d, want gen=1 results=%d", out.Gen, len(out.Results), len(qs))
	}
	for i, r := range out.Results {
		if r.Src != qs[i].Src || r.Dst != qs[i].Dst {
			t.Fatalf("result %d is (%d,%d), want (%d,%d) — order lost", i, r.Src, r.Dst, qs[i].Src, qs[i].Dst)
		}
		if qs[i].Src == 99 {
			if r.Status != http.StatusNotFound || r.Error == "" {
				t.Fatalf("out-of-map query got %+v, want 404 entry", r)
			}
			continue
		}
		if r.Error != "" {
			t.Fatalf("result %d errored: %+v", i, r)
		}
		want := graph.Dijkstra(tc.g, r.Src)[r.Dst]
		if want < graph.Inf && (r.Dist == nil || *r.Dist != want) {
			t.Fatalf("result %d dist %+v, Dijkstra %d", i, r.Dist, want)
		}
		if qs[i].Kind == "path" && want < graph.Inf && len(r.Path) == 0 {
			t.Fatalf("path query %d came back without a path: %+v", i, r)
		}
	}
	if resp.Header.Get(oracle.GenHeader) != "1" {
		t.Fatalf("batch gen header %q", resp.Header.Get(oracle.GenHeader))
	}
}

// TestRouterShardFailure: with one shard dark, its queries degrade to
// per-query 502 entries (the batch still answers) and its single-source
// queries to 502 responses; /healthz turns degraded.
func TestRouterShardFailure(t *testing.T) {
	tc := startCluster(t, 12, 3, 1, Options{
		AttemptTimeout: 200 * time.Millisecond, MaxAttempts: 2,
	})
	tc.back[1][0].Close() // shard 1 (sources 4..7) goes dark

	var probe struct{}
	status, _ := getJSON(t, fmt.Sprintf("%s/dist?src=5&dst=0", tc.front.URL), &probe)
	if status != http.StatusBadGateway {
		t.Fatalf("dist on a dead shard: status %d, want 502", status)
	}

	body, _ := json.Marshal(map[string]any{"queries": []map[string]int{
		{"src": 0, "dst": 1}, {"src": 5, "dst": 1}, {"src": 10, "dst": 1},
	}})
	resp, err := http.Post(tc.front.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct {
			Src    int    `json:"src"`
			Error  string `json:"error"`
			Status int    `json:"status"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Results) != 3 {
		t.Fatalf("batch status %d results %+v", resp.StatusCode, out.Results)
	}
	for i, r := range out.Results {
		deadShard := r.Src == 5
		if deadShard && (r.Status != http.StatusBadGateway || r.Error == "") {
			t.Fatalf("result %d (dead shard) = %+v, want 502 entry", i, r)
		}
		if !deadShard && r.Error != "" {
			t.Fatalf("result %d (live shard) errored: %+v", i, r)
		}
	}

	var h clusterHealth
	status, _ = getJSON(t, tc.front.URL+"/healthz", &h)
	if status != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("healthz with a dead shard: status %d body %+v", status, h)
	}
}

// TestRouterMixedGenRefusal is the generation-coherence gate: a /batch
// gathered while shards disagree on generation is refused with 503 (after
// one retry round) rather than assembled from two snapshots; once the
// laggard catches up the same batch answers from the new generation.
func TestRouterMixedGenRefusal(t *testing.T) {
	tc := startCluster(t, 12, 2, 1, Options{})
	batch := func() (int, uint64, http.Header) {
		body, _ := json.Marshal(map[string]any{"queries": []map[string]int{
			{"src": 0, "dst": 1}, {"src": 11, "dst": 1},
		}})
		resp, err := http.Post(tc.front.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Gen uint64 `json:"gen"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.Gen, resp.Header
	}

	if status, gen, _ := batch(); status != http.StatusOK || gen != 1 {
		t.Fatalf("coherent batch: status %d gen %d", status, gen)
	}

	// Shard 1 moves to generation 2; shard 0 lags.
	tc.servers[1][0].Publish(buildShardSnap(t, tc.g, 1, 2))
	status, _, hdr := batch()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("mixed-generation batch answered %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("mixed-generation refusal carries no Retry-After")
	}
	if v := tc.router.Metrics().MixedGenRefusals.Value(); v < 1 {
		t.Fatalf("MixedGenRefusals = %v, want >= 1", v)
	}
	if v := tc.router.Metrics().GenRetries.Value(); v < 1 {
		t.Fatalf("GenRetries = %v, want >= 1 (laggard must be retried before refusing)", v)
	}

	// Laggard catches up: the same batch serves again, single generation.
	tc.servers[0][0].Publish(buildShardSnap(t, tc.g, 0, 2))
	if status, gen, _ := batch(); status != http.StatusOK || gen != 2 {
		t.Fatalf("post-rollout batch: status %d gen %d, want 200 gen 2", status, gen)
	}
}

// TestRouterRollout: POST /admin/recompute walks the shards one at a
// time; every backend republishes and the router's generation tracking
// follows.
func TestRouterRollout(t *testing.T) {
	tc := startCluster(t, 12, 3, 1, Options{
		RolloutPoll: 5 * time.Millisecond, RolloutTimeout: 10 * time.Second,
	})
	postRecompute(t, tc)

	deadline := time.Now().Add(15 * time.Second)
	for {
		var h clusterHealth
		status, _ := getJSON(t, tc.front.URL+"/healthz", &h)
		done := status == http.StatusOK && !h.Rollout
		if done {
			for _, sh := range h.Shards {
				if sh.Gen != 2 {
					done = false
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollout never completed: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := tc.router.Metrics().Rollouts.Value(); v != 1 {
		t.Fatalf("Rollouts = %v, want 1", v)
	}
	if v := tc.router.Metrics().RolloutFails.Value(); v != 0 {
		t.Fatalf("RolloutFails = %v, want 0", v)
	}
}

// TestRouterInputErrors: malformed requests are refused at the router
// without touching a backend.
func TestRouterInputErrors(t *testing.T) {
	tc := startCluster(t, 8, 2, 1, Options{})
	for _, c := range []struct {
		path string
		want int
	}{
		{"/dist?src=abc&dst=0", http.StatusBadRequest},
		{"/dist?src=99&dst=0", http.StatusNotFound},
		{"/dist?src=-1&dst=0", http.StatusNotFound},
	} {
		if status, _ := getJSON(t, tc.front.URL+c.path, nil); status != c.want {
			t.Errorf("%s: status %d, want %d", c.path, status, c.want)
		}
	}
	post := func(body string) int {
		resp, err := http.Post(tc.front.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post("{not json"); status != http.StatusBadRequest {
		t.Errorf("bad body: %d", status)
	}
	if status := post(`{"queries":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty batch: %d", status)
	}
	// One query past the backend's budget of 4096, which the router enforces.
	if status := post(`{"queries":[` + strings.Repeat(`{"src":0,"dst":1},`, 4096) + `{"src":0,"dst":2}]}`); status != http.StatusRequestEntityTooLarge {
		t.Errorf("over-budget batch: %d", status)
	}
}
