package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/inproc"
	"repro/internal/oracle"
)

// testCluster is an in-process cluster on an inproc.Net: oracle backends
// with autosave dirs, fronted by a Router on the same network, reached
// through one client — the production topology without sockets or
// separate processes. The router's real-socket coverage is cmd/apsprouter's
// tests and make cluster-smoke.
type testCluster struct {
	g      *graph.Graph
	m      *Map
	net    *inproc.Net
	backs  [][]*inproc.Backend // [shard][replica]
	router *Router             // host "router"
	http   *http.Client
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

// startCluster boots nShards shards with `replicas` backends each over a
// seeded random graph, and a router over them. opts.Map, opts.Inner and a
// zero opts.Seed are filled in; everything else is the caller's.
func startCluster(t *testing.T, n, nShards, replicas int, opts Options) *testCluster {
	t.Helper()
	tc := &testCluster{g: graph.Random(n, 4*n, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.25, Directed: true}), net: &inproc.Net{}}
	tc.http = &http.Client{Transport: tc.net}
	replicaSets := make([][]string, nShards)
	for k := range nShards {
		tc.backs = append(tc.backs, nil)
		for r := range replicas {
			b := &inproc.Backend{Net: tc.net, Host: fmt.Sprintf("s%dr%d", k, r), Dir: t.TempDir(), ShardID: FormatShardID(k, nShards),
				Log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
				Build: func(g *graph.Graph) (*oracle.Snapshot, error) { return buildShardSnapE(g, k, nShards) },
				Next:  func(uint64) *graph.Graph { return tc.g }}
			if _, err := b.Restart(tc.g); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Kill() })
			tc.backs[k] = append(tc.backs[k], b)
			replicaSets[k] = append(replicaSets[k], "http://"+b.Host)
		}
	}
	m, err := NewContiguous(n, fmt.Sprintf("%016x", checkpoint.Fingerprint(tc.g)), replicaSets)
	if err != nil {
		t.Fatal(err)
	}
	tc.m = m
	opts.Map, opts.Inner = m, tc.net
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	if tc.router, err = NewRouter(opts); err != nil {
		t.Fatal(err)
	}
	tc.net.Set("router", tc.router.Handler())
	return tc
}

// do sends one request to the router and decodes its JSON answer into out
// (nil: the body is discarded).
func (tc *testCluster) do(t *testing.T, method, path, body string, out any) (int, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, "http://router"+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tc.http.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func (tc *testCluster) get(t *testing.T, path string, out any) (int, http.Header) {
	t.Helper()
	return tc.do(t, http.MethodGet, path, "", out)
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
			status, hdr := tc.get(t, fmt.Sprintf("/dist?src=%d&dst=%d", src, dst), &d)
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
	if status, _ := tc.get(t, "/path?src=20&dst=3", &p); status != http.StatusOK && status != http.StatusNotFound {
		t.Fatalf("path status %d", status)
	}

	// Cluster health: all shards up, fingerprints agree.
	var h clusterHealth
	if status, _ := tc.get(t, "/healthz", &h); status != http.StatusOK || h.Status != "ok" {
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
	status, hdr := tc.do(t, http.MethodPost, "/batch", string(body), &out)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %+v", status, out)
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
	if hdr.Get(oracle.GenHeader) != "1" {
		t.Fatalf("batch gen header %q", hdr.Get(oracle.GenHeader))
	}
}

// TestRouterShardFailure: with one shard dark, its queries degrade to
// per-query 502 entries (the batch still answers) and its single-source
// queries to 502 responses; /healthz turns degraded.
func TestRouterShardFailure(t *testing.T) {
	tc := startCluster(t, 12, 3, 1, Options{
		AttemptTimeout: 200 * time.Millisecond, MaxAttempts: 2,
	})
	tc.backs[1][0].Kill() // shard 1 (sources 4..7) goes dark

	var probe struct{}
	status, _ := tc.get(t, "/dist?src=5&dst=0", &probe)
	if status != http.StatusBadGateway {
		t.Fatalf("dist on a dead shard: status %d, want 502", status)
	}

	body, _ := json.Marshal(map[string]any{"queries": []map[string]int{
		{"src": 0, "dst": 1}, {"src": 5, "dst": 1}, {"src": 10, "dst": 1},
	}})
	var out struct {
		Results []struct {
			Src    int    `json:"src"`
			Error  string `json:"error"`
			Status int    `json:"status"`
		} `json:"results"`
	}
	if status, _ := tc.do(t, http.MethodPost, "/batch", string(body), &out); status != http.StatusOK || len(out.Results) != 3 {
		t.Fatalf("batch status %d results %+v", status, out.Results)
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
	status, _ = tc.get(t, "/healthz", &h)
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
		var out struct {
			Gen uint64 `json:"gen"`
		}
		status, hdr := tc.do(t, http.MethodPost, "/batch", string(body), &out)
		return status, out.Gen, hdr
	}

	if status, gen, _ := batch(); status != http.StatusOK || gen != 1 {
		t.Fatalf("coherent batch: status %d gen %d", status, gen)
	}

	// Shard 1 moves to generation 2; shard 0 lags.
	tc.backs[1][0].Server().Publish(buildShardSnap(t, tc.g, 1, 2))
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
	tc.backs[0][0].Server().Publish(buildShardSnap(t, tc.g, 0, 2))
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

	tc.awaitRollout(t, func(h clusterHealth) bool {
		return !slices.ContainsFunc(h.Shards, func(sh shardHealth) bool { return sh.Gen != 2 })
	})
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
		if status, _ := tc.get(t, c.path, nil); status != c.want {
			t.Errorf("%s: status %d, want %d", c.path, status, c.want)
		}
	}
	post := func(body string) int {
		status, _ := tc.do(t, http.MethodPost, "/batch", body, nil)
		return status
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
