package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// testBackends boots nShards in-process shard backends (real HTTP via
// httptest) over a deterministic graph and returns the graph plus the
// replica base URLs, one per shard.
func testBackends(t *testing.T, n, nShards int) (*graph.Graph, []string) {
	t.Helper()
	g := graph.Random(n, 4*n, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 3, Directed: true})
	bases := make([]string, nShards)
	for k := 0; k < nShards; k++ {
		lo, hi := cluster.Range(n, k, nShards)
		var sources []int
		var dist [][]int64
		var parent [][]int
		for s := lo; s < hi; s++ {
			d, p := graph.DijkstraTree(g, s)
			sources = append(sources, s)
			dist = append(dist, d)
			parent = append(parent, p)
		}
		snap, err := oracle.Build(g, oracle.BuildInput{Alg: "dijkstra", Matrix: family.FromRows(sources, g.N(), dist, nil, parent)},
			oracle.BuildOpts{Fingerprint: checkpoint.Fingerprint(g)})
		if err != nil {
			t.Fatal(err)
		}
		srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(256),
			Met: oracle.NewMetrics(), ShardID: cluster.FormatShardID(k, nShards)}
		srv.Publish(snap)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		bases[k] = ts.URL
	}
	return g, bases
}

// startRouter launches run() and waits for readiness, exactly like
// apspd's test harness: the returned channel carries the drain error.
func startRouter(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, io.Discard, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, errc
	case err := <-errc:
		t.Fatalf("router died before serving: %v", err)
		return "", nil
	case <-time.After(30 * time.Second):
		t.Fatal("router never became ready")
		return "", nil
	}
}

func stopRouter(t *testing.T, errc chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("router never drained after SIGTERM")
	}
}

func getJSON(t *testing.T, url string, out any) int {
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
	return resp.StatusCode
}

// TestRouterDaemonDerivesAndServes: the -backends derivation path end to
// end — probe real backends, derive the contiguous map, route queries
// across every shard (validated against Dijkstra), report a healthy
// cluster, and drain on SIGTERM.
func TestRouterDaemonDerivesAndServes(t *testing.T) {
	g, bases := testBackends(t, 18, 3)
	addrFile := filepath.Join(t.TempDir(), "addr")
	url, errc := startRouter(t, "-backends", strings.Join(bases, ","), "-addr-file", addrFile)

	var h struct {
		Status string `json:"status"`
		N      int    `json:"n"`
		Shards []struct {
			Gen uint64 `json:"gen"`
		} `json:"shards"`
	}
	if status := getJSON(t, url+"/healthz", &h); status != http.StatusOK || h.Status != "ok" || h.N != 18 || len(h.Shards) != 3 {
		t.Fatalf("healthz: status %d body %+v", status, h)
	}

	for src := 0; src < g.N(); src++ {
		want := graph.Dijkstra(g, src)
		for _, dst := range []int{0, 9, 17} {
			var d struct {
				Dist *int64 `json:"dist"`
			}
			if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=%d", url, src, dst), &d); status != http.StatusOK {
				t.Fatalf("dist(%d,%d) status %d", src, dst, status)
			}
			if want[dst] < graph.Inf && (d.Dist == nil || *d.Dist != want[dst]) {
				t.Fatalf("routed dist(%d,%d) = %+v, Dijkstra %d", src, dst, d, want[dst])
			}
		}
	}

	raw, err := os.ReadFile(addrFile)
	if err != nil || !strings.Contains(url, strings.TrimSpace(string(raw))) {
		t.Fatalf("-addr-file wrote %q (err %v), url %s", raw, err, url)
	}
	stopRouter(t, errc)
}

// TestRouterDaemonMapFile: the -map path — a map written by
// internal/cluster boots the router without probing.
func TestRouterDaemonMapFile(t *testing.T) {
	g, bases := testBackends(t, 12, 2)
	replicaSets := make([][]string, len(bases))
	for k, b := range bases {
		replicaSets[k] = []string{b}
	}
	m, err := cluster.NewContiguous(g.N(), fmt.Sprintf("%016x", checkpoint.Fingerprint(g)), replicaSets)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	mapPath := filepath.Join(t.TempDir(), "map.json")
	if err := os.WriteFile(mapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	url, errc := startRouter(t, "-map", mapPath)

	var h struct {
		Status string `json:"status"`
	}
	if status := getJSON(t, url+"/healthz", &h); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", status, h)
	}
	var d struct {
		Dist *int64 `json:"dist"`
	}
	if status := getJSON(t, url+"/dist?src=11&dst=0", &d); status != http.StatusOK {
		t.Fatalf("dist status %d", status)
	}
	if want := graph.Dijkstra(g, 11)[0]; want < graph.Inf && (d.Dist == nil || *d.Dist != want) {
		t.Fatalf("dist(11,0) = %+v, Dijkstra %d", d, want)
	}
	stopRouter(t, errc)
}

// TestRouterRunFlagErrors: startup misconfiguration dies with an error,
// never a half-running router.
func TestRouterRunFlagErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-bogus"},
		{},                                     // neither -map nor -backends
		{"-map", "x", "-backends", "http://a"}, // mutually exclusive
		{"-map", filepath.Join(dir, "missing.json")},
		{"-backends", " , "}, // empty shard
		{"-log", "yaml", "-backends", "http://a"},
		{"-log-level", "shout", "-backends", "http://a"},
		{"-backends", "http://127.0.0.1:1", "-probe-wait", "100ms"}, // unreachable backend
		{"stray", "-backends", "http://a"},
	} {
		if err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, io.Discard, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRouterRefusesMixedGraphBackends: derivation cross-checks the
// fingerprint; two backends serving different graphs must be refused.
func TestRouterRefusesMixedGraphBackends(t *testing.T) {
	_, basesA := testBackends(t, 12, 1)
	gB := graph.Random(12, 48, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 99, Directed: true})
	var sources []int
	var dist [][]int64
	var parent [][]int
	for s := 0; s < 6; s++ {
		d, p := graph.DijkstraTree(gB, s)
		sources, dist, parent = append(sources, s), append(dist, d), append(parent, p)
	}
	snap, err := oracle.Build(gB, oracle.BuildInput{Alg: "dijkstra", Matrix: family.FromRows(sources, gB.N(), dist, nil, parent)},
		oracle.BuildOpts{Fingerprint: checkpoint.Fingerprint(gB)})
	if err != nil {
		t.Fatal(err)
	}
	srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(256), Met: oracle.NewMetrics()}
	srv.Publish(snap)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	err = run([]string{"-addr", "127.0.0.1:0", "-probe-wait", "2s",
		"-backends", basesA[0] + "," + ts.URL}, io.Discard, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "mixed graphs") {
		t.Fatalf("mixed-graph backends accepted: %v", err)
	}
}
