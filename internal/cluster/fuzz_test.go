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
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/graph"
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

// hostHandlers is a socket-free transport: each request is served by the
// handler registered for its host.
type hostHandlers map[string]http.Handler

func (h hostHandlers) RoundTrip(req *http.Request) (*http.Response, error) {
	handler, ok := h[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no backend for %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// FuzzBatchBody posts arbitrary /batch bodies, in process, to a backend
// serving every source and to a router over two shard backends it reaches
// through hostHandlers. Neither handler may panic or answer with a status
// its /batch path does not produce, and every 200 must decode to one result
// per query in query order: a query that parses carries its own src and dst
// back, one that does not is a 400 entry.
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
	backends := hostHandlers{}
	var replicaSets [][]string
	for k := 0; k < 2; k++ {
		host := fmt.Sprintf("apsp-shard-%d:80", k)
		backends[host] = serve(k, 2).Handler()
		replicaSets = append(replicaSets, []string{"http://" + host})
	}
	m, err := NewContiguous(n, fmt.Sprintf("%016x", checkpoint.Fingerprint(g)), replicaSets)
	if err != nil {
		f.Fatal(err)
	}
	router, err := NewRouter(Options{Map: m, Inner: backends, Seed: 1})
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
		var env struct {
			Queries []json.RawMessage `json:"queries"`
		}
		parsed := json.NewDecoder(bytes.NewReader(body)).Decode(&env) == nil
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
					Src, Dst, Status int
				} `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: 200 body does not decode: %v\n%s", tg.name, err, rec.Body.Bytes())
			}
			if len(resp.Results) != len(env.Queries) {
				t.Fatalf("%s: %d results for %d queries", tg.name, len(resp.Results), len(env.Queries))
			}
			for i, raw := range env.Queries {
				var q struct{ Src, Dst int }
				got := resp.Results[i]
				if err := json.Unmarshal(raw, &q); err != nil {
					if got.Status != http.StatusBadRequest {
						t.Fatalf("%s: unparseable query %d (%s) answered %+v, want a 400 entry", tg.name, i, raw, got)
					}
				} else if got.Src != q.Src || got.Dst != q.Dst {
					t.Fatalf("%s: result %d is for (%d,%d), query asked (%d,%d)", tg.name, i, got.Src, got.Dst, q.Src, q.Dst)
				}
			}
		}
	})
}
