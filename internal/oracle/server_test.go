package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// newTestServer builds a published pipeline snapshot over a small random
// graph and wraps it in an httptest server.
func newTestServer(t *testing.T, tweak func(*Server)) (*httptest.Server, *Server, *Snapshot) {
	t.Helper()
	g, _, in := testInput(t, 16, 48, 21, []int{0, 2, 5, 9})
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Store: &Store{}, Cache: NewPathCache(128), Met: NewMetrics()}
	if tweak != nil {
		tweak(srv)
	}
	srv.Publish(snap)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, snap
}

// batchBody is the POST /batch body asking qs.
func batchBody(qs []Query) []byte {
	body, _ := json.Marshal(Batch{Queries: qs})
	return body
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

func TestServerDistEndpoint(t *testing.T) {
	ts, _, snap := newTestServer(t, nil)
	for _, src := range snap.Sources() {
		row, _ := snap.Row(src)
		for v := 0; v < snap.N(); v++ {
			var resp distResp
			status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=%d", ts.URL, src, v), &resp)
			if status != http.StatusOK {
				t.Fatalf("dist(%d,%d) status %d", src, v, status)
			}
			want := snap.DistAt(row, v)
			switch {
			case want >= graph.Inf:
				if resp.Reachable || resp.Dist != nil {
					t.Fatalf("dist(%d,%d): unreachable pair served %+v", src, v, resp)
				}
			case resp.Dist == nil || *resp.Dist != want || !resp.Reachable:
				t.Fatalf("dist(%d,%d) = %+v, want %d", src, v, resp, want)
			}
			if resp.Gen != snap.Gen() {
				t.Fatalf("dist(%d,%d) gen %d, want %d", src, v, resp.Gen, snap.Gen())
			}
		}
	}
}

func TestServerPathEndpoint(t *testing.T) {
	ts, _, snap := newTestServer(t, nil)
	src := snap.Sources()[1]
	row, _ := snap.Row(src)
	served := 0
	for v := 0; v < snap.N(); v++ {
		want, wantErr := snap.Path(row, v)
		var resp pathResp
		status := getJSON(t, fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, v), &resp)
		if wantErr != nil {
			if status != pathStatus(wantErr) {
				t.Fatalf("path(%d,%d) status %d, want %d for %v", src, v, status, pathStatus(wantErr), wantErr)
			}
			continue
		}
		served++
		if status != http.StatusOK {
			t.Fatalf("path(%d,%d) status %d", src, v, status)
		}
		if len(resp.Path) != len(want) || resp.Hops != len(want)-1 || resp.Dist != snap.DistAt(row, v) {
			t.Fatalf("path(%d,%d) = %+v, want path %v", src, v, resp, want)
		}
		for j := range want {
			if resp.Path[j] != want[j] {
				t.Fatalf("path(%d,%d) = %v, want %v", src, v, resp.Path, want)
			}
		}
	}
	if served == 0 {
		t.Fatal("no reachable path was exercised")
	}
}

func TestServerErrorStatuses(t *testing.T) {
	ts, _, snap := newTestServer(t, nil)
	nonSource := -1
	for v := 0; v < snap.N(); v++ {
		if _, ok := snap.Row(v); !ok {
			nonSource = v
			break
		}
	}
	cases := []struct {
		url  string
		want int
	}{
		{"/dist?src=0", http.StatusBadRequest},                              // missing dst
		{"/dist?src=zero&dst=1", http.StatusBadRequest},                     // non-numeric
		{"/dist?src=0&dst=999", http.StatusBadRequest},                      // dst out of range
		{fmt.Sprintf("/dist?src=%d&dst=1", nonSource), http.StatusNotFound}, // not a source row
		{"/path?src=0&dst=-2", http.StatusBadRequest},                       // dst out of range
		{fmt.Sprintf("/path?src=%d&dst=1", nonSource), http.StatusNotFound}, // not a source row
		{"/dist?src=99999&dst=0", http.StatusNotFound},                      // far outside
	}
	for _, tc := range cases {
		var e errResp
		if status := getJSON(t, ts.URL+tc.url, &e); status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.url, status, e.Error, tc.want)
		} else if e.Error == "" {
			t.Errorf("%s: error body missing", tc.url)
		}
	}
}

func TestServerNoSnapshot503(t *testing.T) {
	srv := &Server{Store: &Store{}, Met: NewMetrics()}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status := getJSON(t, ts.URL+"/dist?src=0&dst=1", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("empty store served status %d, want 503", status)
	}
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("empty store healthz %d, want 503", status)
	}
}

func TestServerBatch(t *testing.T) {
	ts, _, snap := newTestServer(t, nil)
	src := snap.Sources()[0]
	row, _ := snap.Row(src)

	var queries []Query
	for v := 0; v < snap.N(); v++ {
		queries = append(queries, Query{Kind: "dist", Src: src, Dst: v})
		queries = append(queries, Query{Kind: "path", Src: src, Dst: v})
	}
	queries = append(queries,
		Query{Kind: "dist", Src: -5, Dst: 0},     // unknown source → per-item 404
		Query{Kind: "dist", Src: src, Dst: 9999}, // bad dst → per-item 400
		Query{Kind: "warp", Src: src, Dst: 0},    // unknown kind → per-item 400
	)
	body := batchBody(queries)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br batchResp
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Gen != snap.Gen() || len(br.Results) != len(queries) {
		t.Fatalf("batch gen=%d results=%d, want gen=%d results=%d", br.Gen, len(br.Results), snap.Gen(), len(queries))
	}
	for v := 0; v < snap.N(); v++ {
		d := br.Results[2*v]
		want := snap.DistAt(row, v)
		if want < graph.Inf && (d.Dist == nil || *d.Dist != want) {
			t.Fatalf("batch dist(%d,%d) = %+v, want %d", src, v, d, want)
		}
		p := br.Results[2*v+1]
		wantPath, wantErr := snap.Path(row, v)
		if wantErr != nil {
			if p.Status != pathStatus(wantErr) || p.Error == "" {
				t.Fatalf("batch path(%d,%d) = %+v, want status %d", src, v, p, pathStatus(wantErr))
			}
		} else if len(p.Path) != len(wantPath) {
			t.Fatalf("batch path(%d,%d) = %v, want %v", src, v, p.Path, wantPath)
		}
	}
	tail := br.Results[len(br.Results)-3:]
	for i, wantStatus := range []int{http.StatusNotFound, http.StatusBadRequest, http.StatusBadRequest} {
		if tail[i].Status != wantStatus {
			t.Fatalf("trailing batch item %d: %+v, want status %d", i, tail[i], wantStatus)
		}
	}

	// Over-budget and malformed batches are refused whole.
	big := batchBody(make([]Query, batchBudget+1))
	if resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-budget batch status %d, want 413", resp.StatusCode)
		}
	}
	for _, bad := range []string{"{not json", `{"queries":[]}`} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch %q status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestServerAdmissionShedding(t *testing.T) {
	block := make(chan struct{})
	ts, srv, _ := newTestServer(t, nil)
	// Occupy every slot directly (the handler path would race the test).
	release := fillSlots(t, srv, maxInflight)
	defer func() { close(block); release() }()

	if status := getJSON(t, ts.URL+"/dist?src=0&dst=1", nil); status != http.StatusTooManyRequests {
		t.Fatalf("saturated server status %d, want 429", status)
	}
	if srv.Met.Shed.Value() == 0 {
		t.Fatal("shed counter not incremented")
	}
	// Control endpoints bypass admission even under saturation.
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", status)
	}
}

func TestServerRecomputeSingleFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ts, srv, snap := newTestServer(t, nil)
	g, _, in := testInput(t, 16, 48, 21, []int{0, 2, 5, 9})
	srv.Recompute = func(ctx context.Context) (*Snapshot, error) {
		once.Do(func() { close(started) })
		<-release
		return Build(g, in, BuildOpts{})
	}
	post := func(path string) int {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post("/admin/recompute"); status != http.StatusAccepted {
		t.Fatalf("recompute status %d, want 202", status)
	}
	<-started
	if status := post("/admin/recompute"); status != http.StatusConflict {
		t.Fatalf("concurrent recompute status %d, want 409", status)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Store.Current().Gen() == snap.Gen() {
		if time.Now().After(deadline) {
			t.Fatal("recompute never published")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Store.Current().Gen(); got != snap.Gen()+1 {
		t.Fatalf("published gen %d, want %d", got, snap.Gen()+1)
	}
	var h Health
	if status := getJSON(t, ts.URL+"/healthz", &h); status != http.StatusOK || h.Gen != snap.Gen()+1 {
		t.Fatalf("healthz after swap: status %d, %+v", status, h)
	}
}

// TestServerRecomputingCoversAfterPublish pins the contract a cluster
// router reads as durability: after a recompute publishes, /healthz
// reports the new generation at once but keeps Recomputing true until the
// AfterPublish hook (the autosave) returns.
func TestServerRecomputingCoversAfterPublish(t *testing.T) {
	ts, srv, snap := newTestServer(t, nil)
	g, _, in := testInput(t, 16, 48, 21, []int{0, 2, 5, 9})
	srv.Recompute = func(ctx context.Context) (*Snapshot, error) { return Build(g, in, BuildOpts{}) }
	saving := make(chan uint64, 1)
	release := make(chan struct{})
	srv.AfterPublish = func(s *Snapshot) {
		saving <- s.Gen()
		<-release
	}
	resp, err := http.Post(ts.URL+"/admin/recompute", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("recompute status %d, want 202", resp.StatusCode)
	}
	if gen := <-saving; gen != snap.Gen()+1 {
		t.Fatalf("AfterPublish saw gen %d, want %d", gen, snap.Gen()+1)
	}
	var h Health
	if status := getJSON(t, ts.URL+"/healthz", &h); status != http.StatusOK || h.Gen != snap.Gen()+1 || !h.Recomputing {
		close(release)
		t.Fatalf("healthz inside AfterPublish: status %d, %+v; want the new gen with recomputing set", status, h)
	}
	close(release)
	for deadline := time.Now().Add(5 * time.Second); h.Recomputing; {
		if time.Now().After(deadline) {
			t.Fatalf("recomputing never cleared after AfterPublish returned: %+v", h)
		}
		time.Sleep(time.Millisecond)
		getJSON(t, ts.URL+"/healthz", &h)
	}
	if h.Gen != snap.Gen()+1 {
		t.Fatalf("healthz after the hook: %+v, want gen %d", h, snap.Gen()+1)
	}
}

func TestServerRecomputeUnavailable(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/admin/recompute", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("recompute without source: %d, want 501", resp.StatusCode)
	}
}

func TestServerMetricsAndHealthz(t *testing.T) {
	ts, _, snap := newTestServer(t, nil)
	// Serve a few queries so instruments move.
	getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=1", ts.URL, snap.Sources()[0]), nil)
	getJSON(t, fmt.Sprintf("%s/path?src=%d&dst=1", ts.URL, snap.Sources()[0]), nil)
	getJSON(t, fmt.Sprintf("%s/path?src=%d&dst=1", ts.URL, snap.Sources()[0]), nil) // cache hit

	var h Health
	if status := getJSON(t, ts.URL+"/healthz", &h); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if h.Status != "ok" || h.Gen != snap.Gen() || h.N != snap.N() || h.K != snap.K() || !h.HasPaths {
		t.Fatalf("healthz body %+v", h)
	}
	if h.Fingerprint != fmt.Sprintf("%016x", snap.Fingerprint()) {
		t.Fatalf("healthz fingerprint %q", h.Fingerprint)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`apspd_queries_total{kind="dist"} 1`,
		`apspd_queries_total{kind="path"} 2`,
		"apspd_snapshot_generation 1",
		"apspd_snapshot_swaps_total 1",
		"apspd_path_cache_hits_total 1",
		"apspd_path_cache_misses_total 1",
		"apspd_latency_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestServerPprofWired(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	if status := getJSON(t, ts.URL+"/debug/pprof/cmdline", nil); status != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", status)
	}
}
