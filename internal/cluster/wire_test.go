package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/inproc"
	"repro/internal/oracle"
)

// wireTranscript drives the query surface of a whole-graph backend, a
// distance-only backend and a two-shard router (in process, through
// an inproc.Net) with every answer and refusal the query path can give
// without load, and records each exchange: request, status, the headers a
// client acts on, and the body byte for byte.
func wireTranscript(t *testing.T) string {
	t.Helper()
	const n = 12
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 5, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	serve := func(snap *oracle.Snapshot, shard string) http.Handler {
		srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(64), Met: oracle.NewMetrics(), ShardID: shard}
		srv.Publish(snap)
		return srv.Handler()
	}
	var backends inproc.Net
	var replicaSets [][]string
	for k := 0; k < 2; k++ {
		host := fmt.Sprintf("apsp-shard-%d:80", k)
		backends.Set(host, serve(buildShardSnap(t, g, k, 2), FormatShardID(k, 2)))
		replicaSets = append(replicaSets, []string{"http://" + host})
	}
	m, err := NewContiguous(n, fmt.Sprintf("%016x", checkpoint.Fingerprint(g)), replicaSets)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(Options{Map: m, Inner: &backends, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sources []int
	var dist [][]int64
	for s := 1; s < n; s += 3 {
		sources = append(sources, s)
		dist = append(dist, graph.Dijkstra(g, s))
	}
	distOnly, err := oracle.Build(g, oracle.BuildInput{Alg: "blocker", Matrix: family.FromRows(sources, n, dist, nil, nil)},
		oracle.BuildOpts{Fingerprint: checkpoint.Fingerprint(g)})
	if err != nil {
		t.Fatal(err)
	}

	all := make([]string, 0, n)
	for v := 0; v < n; v++ {
		all = append(all, fmt.Sprintf(`{"src":7,"dst":%d},{"kind":"path","src":1,"dst":%d}`, v, v))
	}
	over := `{"queries":[` + strings.Repeat(`{"src":0,"dst":1},`, 4096) + `{"src":0,"dst":1}]}`
	type exchange struct{ method, target, body string }
	queries := []exchange{
		{"GET", "/dist?src=0&dst=5", ""},
		{"GET", "/dist?src=7&dst=7", ""},
		{"GET", "/dist?src=11&dst=0", ""},
		{"GET", "/dist?src=abc&dst=0", ""},
		{"GET", "/dist?src=0", ""},
		{"GET", "/dist?src=99&dst=0", ""},
		{"GET", "/dist?src=-1&dst=0", ""},
		{"GET", "/dist?src=0&dst=12", ""},
		{"GET", "/path?src=7&dst=3", ""},
		{"GET", "/path?src=1&dst=1", ""},
		{"GET", "/path?src=4&dst=10", ""},
		{"GET", "/path?src=99&dst=0", ""},
		{"GET", "/path?src=0&dst=-2", ""},
		{"POST", "/batch", `{"queries":[` + strings.Join(all, ",") + `]}`},
		{"POST", "/batch", `{"queries":[{"src":99,"dst":1},{"src":1,"dst":-4},{"kind":"teleport","src":2,"dst":2},{"kind":"path","src":6,"dst":12}]}`},
		{"POST", "/batch", `{"queries":[{"src":1.5,"dst":1},{"src":"3","dst":1},7,null,{"kind":4,"src":0,"dst":0},{"src":9,"dst":2}]}`},
		{"POST", "/batch", `{"queries":[]}`},
		{"POST", "/batch", `{not json`},
		{"POST", "/batch", over},
	}
	targets := []struct {
		name string
		h    http.Handler
	}{
		{"backend", serve(buildShardSnap(t, g, 0, 1), "")},
		{"router", router.Handler()},
		{"dist-only", serve(distOnly, "")},
	}
	var out strings.Builder
	for _, tg := range targets {
		for _, q := range queries {
			if tg.name == "dist-only" && q.body == "" && !strings.HasPrefix(q.target, "/path?src=") {
				continue // the dist-only server differs from the backend only in its path answers
			}
			req := httptest.NewRequest(q.method, q.target, strings.NewReader(q.body))
			rec := httptest.NewRecorder()
			tg.h.ServeHTTP(rec, req)
			shown := q.body
			if len(shown) > 120 {
				shown = fmt.Sprintf("%s… (%d bytes)", shown[:120], len(shown))
			}
			fmt.Fprintf(&out, "== %s %s %s %s\n%d", tg.name, q.method, q.target, shown, rec.Code)
			for _, h := range []string{"Content-Type", oracle.GenHeader, oracle.ShardHeader, "Retry-After"} {
				if v := rec.Header().Get(h); v != "" {
					fmt.Fprintf(&out, " %s=%s", h, v)
				}
			}
			fmt.Fprintf(&out, "\n%s", rec.Body.Bytes())
		}
	}
	return out.String()
}

// TestWireTranscript pins the query surface's bytes: every answer, every
// refusal, every header a client acts on, for a backend, a distance-only
// backend and a router, against testdata/wire.golden. On a deliberate
// change the full new transcript is in the failure output.
func TestWireTranscript(t *testing.T) {
	got := wireTranscript(t)
	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("first difference at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			break
		}
	}
	t.Fatalf("transcript differs from testdata/wire.golden (%d vs %d lines); got:\n%s", len(gl), len(wl), bytes.TrimSpace([]byte(got)))
}
