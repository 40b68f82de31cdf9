package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/inproc"
	"repro/internal/oracle"
)

// FuzzMapLoad feeds arbitrary bytes to Load, the reader of the -map file a
// router boots from. Refusing them is fine; panicking is not, and a map it
// accepts must pass Validate and come back unchanged through Save → Load.
func FuzzMapLoad(f *testing.F) {
	m, err := NewContiguous(12, "00deadbeef00cafe", [][]string{
		{"http://127.0.0.1:8081"}, {"http://127.0.0.1:8082", "https://apsp-b:443"},
	})
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"version":1,"n":4,"shards":[{"id":1,"lo":2,"hi":4,"replicas":["http://b"]},{"id":0,"lo":0,"hi":2,"replicas":["http://a"]}]}`))
	f.Add([]byte(`{"version":1,"n":4,"shards":[{"id":0,"lo":0,"hi":3,"replicas":["http://a"]},{"id":0,"lo":3,"hi":4,"replicas":["http://b"]}]}`))
	f.Add([]byte(`{"version":1,"n":2,"shards":[{"id":0,"lo":0,"hi":2,"replicas":["ftp://a"]}]}`))
	f.Add([]byte(`{"version":2,"n":1}`))
	f.Add([]byte(`null`))
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Load(in)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Load accepted a map Validate refuses: %v", err)
		}
		if err := m.Save(out); err != nil {
			t.Fatalf("Save of a loaded map: %v", err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("Load of a saved map: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("Save → Load changed the map:\n%+v\n%+v", m, again)
		}
	})
}

// FuzzBatchBody posts arbitrary /batch bodies, in process, to a backend
// serving every source and to a router over two shard backends it reaches
// on an inproc.Net. Neither handler may panic or answer with a status
// its /batch path does not produce. A body that does not decode as a whole
// is refused; every 200 must decode to one result per query in query order,
// each carrying its own query's src and dst back.
func FuzzBatchBody(f *testing.F) {
	const n = 12
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 5, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	serve := func(k, nShards int) *oracle.Server {
		snap, err := buildShardSnapE(g, k, nShards)
		if err != nil {
			f.Fatal(err)
		}
		srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(64), Met: oracle.NewMetrics()}
		if nShards > 1 {
			srv.ShardID = FormatShardID(k, nShards)
		}
		srv.Publish(snap)
		return srv
	}
	var backends inproc.Net
	var replicaSets [][]string
	for k := 0; k < 2; k++ {
		host := fmt.Sprintf("apsp-shard-%d:80", k)
		backends.Set(host, serve(k, 2).Handler())
		replicaSets = append(replicaSets, []string{"http://" + host})
	}
	m, err := NewContiguous(n, fmt.Sprintf("%016x", checkpoint.Fingerprint(g)), replicaSets)
	if err != nil {
		f.Fatal(err)
	}
	router, err := NewRouter(Options{Map: m, Inner: &backends, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	// The statuses each /batch path writes: oracle.Server.handleBatch and
	// its admission/snapshot wrapper, Router.handleBatch.
	targets := []struct {
		name     string
		h        http.Handler
		statuses []int
	}{
		{"backend", serve(0, 1).Handler(), []int{200, 400, 413, 429, 503, 504}},
		{"router", router.Handler(), []int{200, 400, 413, 503}},
	}

	for _, seed := range []string{
		`{"queries":[{"src":0,"dst":5},{"kind":"path","src":7,"dst":3},{"kind":"dist","src":11,"dst":0}]}`,
		`{"queries":[{"src":99,"dst":1},{"src":1,"dst":-4},{"kind":"teleport","src":2,"dst":2}]}`,
		`{"queries":[{"src":1.5,"dst":1},{"src":"3","dst":1},7,null,{"kind":4,"src":0,"dst":0}]}`,
		`{"queries":[]}`,
		`{"queries":null}`,
		`{"queries":[{"src":0,"dst":1}]} trailing`,
		`[{"src":0,"dst":1}]`,
		`{"queries":[{"src":0,"SRC":6,"dst":1}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var batch oracle.Batch
		parsed := json.NewDecoder(bytes.NewReader(body)).Decode(&batch) == nil
		for _, tg := range targets {
			rec := httptest.NewRecorder()
			tg.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
			if !slices.Contains(tg.statuses, rec.Code) {
				t.Fatalf("%s: status %d is not one /batch answers with (%v); body %q", tg.name, rec.Code, tg.statuses, rec.Body.Bytes())
			}
			if rec.Code != http.StatusOK {
				continue
			}
			if !parsed {
				t.Fatalf("%s: 200 for a body that does not decode", tg.name)
			}
			var resp struct {
				Results []struct {
					Src, Dst int
				} `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: 200 body does not decode: %v\n%s", tg.name, err, rec.Body.Bytes())
			}
			if len(resp.Results) != len(batch.Queries) {
				t.Fatalf("%s: %d results for %d queries", tg.name, len(resp.Results), len(batch.Queries))
			}
			for i, q := range batch.Queries {
				if got := resp.Results[i]; got.Src != q.Src || got.Dst != q.Dst {
					t.Fatalf("%s: result %d is for (%d,%d), query asked (%d,%d)", tg.name, i, got.Src, got.Dst, q.Src, q.Dst)
				}
			}
		}
	})
}

// FuzzShardHeaders feeds arbitrary X-Apsp-Generation and X-Apsp-Shard
// values from a backend into the router, the one place it parses bytes it
// did not write outside a body. A generation that is not a decimal uint64
// must count as no generation, never as a wrong one: the router's tracked
// generation only moves up, to exactly the value it parsed, its gauge
// follows it, the /dist answer is relayed with that generation, and the
// shard header is relayed untouched.
func FuzzShardHeaders(f *testing.F) {
	for _, seed := range [][2]string{
		{"1", "0/1"}, {"", ""}, {"007", "1/2"}, {"-3", "x"}, {"18446744073709551615", "0/1"},
		{"18446744073709551616", "0/1"}, {"+2", "0/1\r\nX: y"}, {"1e3", ""}, {" 4", "0/1"},
	} {
		f.Add(seed[0], seed[1])
	}
	var gen, shard string
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(oracle.GenHeader, gen)
		w.Header().Set(oracle.ShardHeader, shard)
		switch r.URL.Path {
		case "/dist":
			oracle.WriteJSON(w, http.StatusOK, oracle.Answer{Reachable: true})
		case "/batch":
			w.Write([]byte(`{"gen":1,"results":[{"src":0,"dst":0,"reachable":true,"dist":0}]}`))
		default:
			oracle.WriteJSON(w, http.StatusOK, oracle.Health{Status: "ok", N: 1})
		}
	})
	m, err := NewContiguous(1, "", [][]string{{"http://apsp-shard-0:80"}})
	if err != nil {
		f.Fatal(err)
	}
	var backends inproc.Net
	backends.Set("apsp-shard-0:80", backend)
	router, err := NewRouter(Options{Map: m, Inner: &backends, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := router.Handler()
	sc := router.shards[0]
	f.Fuzz(func(t *testing.T, g, s string) {
		gen, shard = g, s
		parsed, err := strconv.ParseUint(g, 10, 64)
		if err != nil {
			parsed = 0
		}
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodGet, "/dist?src=0&dst=0", nil),
			httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(`{"queries":[{"src":0,"dst":0}]}`)),
			httptest.NewRequest(http.MethodGet, "/healthz", nil),
		} {
			before := sc.lastGen.Load()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s with gen %q shard %q: status %d %s", req.URL, g, s, rec.Code, rec.Body.Bytes())
			}
			if want := max(before, parsed); sc.lastGen.Load() != want {
				t.Fatalf("%s with gen %q: tracked generation %d -> %d, want %d", req.URL, g, before, sc.lastGen.Load(), want)
			}
			if got := router.met.shardGen[0].Value(); got != float64(sc.lastGen.Load()) {
				t.Fatalf("%s with gen %q: gauge %v, tracked %d", req.URL, g, got, sc.lastGen.Load())
			}
			if req.URL.Path != "/dist" {
				continue
			}
			if got := rec.Header().Get(oracle.GenHeader); got != strconv.FormatUint(parsed, 10) {
				t.Fatalf("/dist with gen %q relayed gen %q, want %d", g, got, parsed)
			}
			if got := rec.Header().Get(oracle.ShardHeader); got != s {
				t.Fatalf("/dist relayed shard %q, backend said %q", got, s)
			}
		}
	})
}
