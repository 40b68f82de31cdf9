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
	"sync/atomic"
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
		writeMap(t, m, out)
		again, err := Load(out)
		if err != nil {
			t.Fatalf("Load of a re-encoded map: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("encode → Load changed the map:\n%+v\n%+v", m, again)
		}
	})
}

// batchTarget is one /batch handler under test.
type batchTarget struct {
	name string
	h    http.Handler
}

// batchTargets builds a backend serving every source and a router over two
// shard backends it reaches on an inproc.Net.
func batchTargets(tb testing.TB) []batchTarget {
	const n = 12
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 5, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	serve := func(k, nShards int) *oracle.Server {
		snap, err := buildShardSnapE(g, k, nShards)
		if err != nil {
			tb.Fatal(err)
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
		tb.Fatal(err)
	}
	router, err := NewRouter(Options{Map: m, Inner: &backends, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return []batchTarget{{"backend", serve(0, 1).Handler()}, {"router", router.Handler()}}
}

// FuzzBatchBody posts arbitrary /batch bodies, in process, to the
// batchTargets. encoding/json is the reference reader: a body it decodes
// to between 1 and 4096 queries is answered 200, with one result per query
// in query order, each carrying its own query's src and dst back, and
// ReadBatch returns exactly the queries it decodes. Every other body gets
// the refusal built here from the decoder's error and the serving limits,
// status and body byte for byte, from ReadBatch and from both handlers.
func FuzzBatchBody(f *testing.F) {
	targets := batchTargets(f)
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
		// The edges of a reader that takes the canonical shape in one pass.
		`{"queries":[{"dst":1,"src":0},{"dst":3,"src":7,"kind":"path"}]}`,
		`{"queries":[{"SRC":4,"dst":1},{"Kind":"path","src":7,"dst":3}]}`,
		`{"queries":[{"kind":"p\u0061th","src":7,"dst":3}]}`,
		`{"queries":[{"src":0,"src":7,"dst":1,"dst":2,"kind":"dist","kind":"path"}]}`,
		`{"queries":[{"src":-0,"dst":1}]}`,
		`{"queries":[{"src":01,"dst":1}]}`,
		`{"queries":[{"src":1e2,"dst":1}]}`,
		`{"queries":[{"src":9223372036854775808,"dst":1}]}`,
		`{"queries":[{"src":-9223372036854775808,"dst":9223372036854775807}]}`,
		`{"queries":[{"kind":null,"src":7,"dst":3}]}`,
		`{"queries":[{"src":0,"dst":1,"hops":2}],"extra":true}`,
		"\r\n{\t\"queries\" :\r\n[ {\"src\":0 ,\t\"dst\":1}\n,{ }\r]\n}\t\n",
		`{"queries":[{"src":0,"dst":1}]}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var batch oracle.Batch
		derr := json.NewDecoder(bytes.NewReader(body)).Decode(&batch)
		refusal := httptest.NewRecorder()
		switch {
		case derr != nil:
			oracle.WriteErr(refusal, http.StatusBadRequest, "bad batch body: %v", derr)
		case len(batch.Queries) == 0:
			oracle.WriteErr(refusal, http.StatusBadRequest, "empty batch")
		case len(batch.Queries) > 4096:
			oracle.WriteErr(refusal, http.StatusRequestEntityTooLarge, "batch of %d exceeds budget %d", len(batch.Queries), 4096)
		default:
			refusal = nil
		}
		rec := httptest.NewRecorder()
		queries, status := oracle.ReadBatch(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		switch {
		case refusal != nil && (status != refusal.Code || rec.Body.String() != refusal.Body.String()):
			t.Fatalf("ReadBatch refused with %d %q, encoding/json with %d %q", status, rec.Body.Bytes(), refusal.Code, refusal.Body.Bytes())
		case refusal == nil && (status != 0 || !slices.Equal(queries, batch.Queries)):
			t.Fatalf("ReadBatch read %+v (status %d %q), encoding/json %+v", queries, status, rec.Body.Bytes(), batch.Queries)
		}
		for _, tg := range targets {
			rec := httptest.NewRecorder()
			tg.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
			if refusal != nil {
				if rec.Code != refusal.Code || rec.Body.String() != refusal.Body.String() {
					t.Fatalf("%s: answered %d %q, want the refusal %d %q", tg.name, rec.Code, rec.Body.Bytes(), refusal.Code, refusal.Body.Bytes())
				}
				continue
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d for a body encoding/json reads; body %q", tg.name, rec.Code, rec.Body.Bytes())
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

// TestBatchBodyLimit posts /batch bodies at and just past the 4 MiB body
// limit to the batchTargets. The streaming decoder reads only as far as
// the first JSON value ends, so a body past the limit is refused as too
// large only when its value, or a syntax error, is not found first.
func TestBatchBodyLimit(t *testing.T) {
	const limit = 4 << 20 // oracle's maxBatchBytes
	const one = `{"queries":[{"src":0,"dst":1}`
	pad := func(head, tail string, size int) string {
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	const ok = "200 "
	tooLarge := "400 " + `{"error":"bad batch body: http: request body too large"}` + "\n"
	for _, c := range []struct {
		name, body, want string
	}{
		{"value of exactly the limit", pad(one, "]}", limit), ok},
		{"value one byte past the limit", pad(one, "]}", limit+1), tooLarge},
		{"value then padding past the limit", pad(one+"]}", "", limit+1), ok},
		{"syntax error before the limit", pad(one+"]x", "", limit+1),
			"400 " + `{"error":"bad batch body: invalid character 'x' after object key:value pair"}` + "\n"},
	} {
		for _, tg := range batchTargets(t) {
			rec := httptest.NewRecorder()
			tg.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(c.body)))
			got := fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
			if c.want == ok {
				got = got[:len(ok)]
			}
			if got != c.want {
				t.Errorf("%s, %s: answered %.200q, want %q", c.name, tg.name, got, c.want)
			}
		}
	}
}

// FuzzShardBatchAnswer has a one-shard backend answer the router's /batch
// sub-batch 200 with arbitrary bytes. The router's answer is always a 200
// that decodes with one result per query, in query order. encoding/json is
// the reference for the shard's bytes: when it reads them as a
// {"gen","results"} answer with one result per shard query, the router
// splices those results verbatim and reports that generation; otherwise
// the shard's slots carry 502 entries whose reason is the decoder's error
// or the count mismatch, and the generation is 0. The query whose source
// no shard owns gets its 404 entry either way.
func FuzzShardBatchAnswer(f *testing.F) {
	for _, seed := range []string{
		`{"gen":3,"results":[{"src":0,"dst":1,"reachable":true,"dist":4},{"src":1,"dst":0,"reachable":true,"dist":2,"path":[1,0]}]}` + "\n",
		" {\n\"gen\" : 3 ,\t\"results\" : [ {\"src\" : 0} ,\r\n[1, -2.5e+3, 0.0, \"x\\u00e9\\\"\\n\", true, false, null, {}, []] ] } ",
		`{"gen":3,"results":[{"src":0,"dst":1}]}`,
		`{"gen":3,"results":[1,2,3]}`,
		`{"gen":-1,"results":[1,2]}`,
		`{"gen":"3","results":[1,2]}`,
		`{"gen":1.0,"results":[1,2]}`,
		`{"GEN":3,"Results":[1,2]}`,
		`{"gen":3,"results":[1,2],"gen":4}`,
		`{"results":[1,2],"gen":18446744073709551615}`,
		`{"gen":18446744073709551616,"results":[1,2]}`,
		`{"gen":3,"results":[1,2],"extra":{}}`,
		`{"gen":3,"results":null}`,
		`{"gen":3}`,
		`{"gen":3,"results":[1,2]} x`,
		`{"gen":3,"results":[1,2]`,
		`{"gen":03,"results":[1,2]}`,
		`{"gen":3,"results":[01,2]}`,
		`{"gen":3,"results":["\x","a"]}`,
		"{\"gen\":3,\"results\":[\"\xff\\u2028\",\"\t\"]}",
		`{"gen":3,"results":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]],{"a":[1,{"b":nul}]}]}`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	var answer atomic.Pointer[[]byte]
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(oracle.GenHeader, "1")
		_, _ = w.Write(*answer.Load())
	})
	m, err := NewContiguous(2, "", [][]string{{"http://apsp-shard-0:80"}})
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
	queries := []oracle.Query{{Src: 0, Dst: 1}, {Src: 5, Dst: 0}, {Kind: "path", Src: 1, Dst: 0}}
	body, err := json.Marshal(oracle.Batch{Queries: queries})
	if err != nil {
		f.Fatal(err)
	}
	entry := func(a oracle.Answer) json.RawMessage {
		raw, err := json.Marshal(a)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Fuzz(func(t *testing.T, shard []byte) {
		owned := bytes.Clone(shard) // a hedge may still read it after the router answers
		answer.Store(&owned)
		var sr shardBatchResp
		err := json.Unmarshal(shard, &sr)
		want := []json.RawMessage{nil, entry(queries[1].Fail(http.StatusNotFound, "source 5 outside cluster map (n=2)")), nil}
		wantGen := sr.Gen
		reason := ""
		switch {
		case err != nil:
			reason = err.Error()
		case len(sr.Results) != 2:
			reason = fmt.Sprintf("shard answered %d results for %d queries", len(sr.Results), 2)
		}
		if reason == "" {
			want[0], want[2] = sr.Results[0], sr.Results[1]
		} else {
			wantGen = 0
			for _, i := range []int{0, 2} {
				want[i] = entry(queries[i].Fail(http.StatusBadGateway, "shard 0: %s", reason))
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for shard answer %q: %s", rec.Code, shard, rec.Body.Bytes())
		}
		var got shardBatchResp
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("router answer does not decode: %v\n%s", err, rec.Body.Bytes())
		}
		if got.Gen != wantGen || rec.Header().Get(oracle.GenHeader) != strconv.FormatUint(wantGen, 10) {
			t.Fatalf("router answered gen %d (header %q), want %d", got.Gen, rec.Header().Get(oracle.GenHeader), wantGen)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("router answered %d results for %d queries: %s", len(got.Results), len(want), rec.Body.Bytes())
		}
		for i := range want {
			if !bytes.Equal(got.Results[i], want[i]) {
				t.Fatalf("result %d is %s, want %s", i, got.Results[i], want[i])
			}
		}
	})
}
