package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
)

func sp(id, parent int64, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Op: 1, Name: name, Start: start, End: end}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := sp(1, 0, "p", 0, 100)
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"serial", []span{sp(2, 1, "c", 10, 20), sp(3, 1, "c", 30, 50)}, 70},
		{"overlapping", []span{sp(2, 1, "c", 10, 60), sp(3, 1, "c", 40, 80)}, 30},
		{"nested", []span{sp(2, 1, "c", 10, 90), sp(3, 1, "c", 20, 30)}, 20},
		{"identical", []span{sp(2, 1, "c", 10, 60), sp(3, 1, "c", 10, 60)}, 50},
		{"sticking out", []span{sp(2, 1, "c", -20, 10), sp(3, 1, "c", 90, 130)}, 80},
		{"outside", []span{sp(2, 1, "c", 200, 300)}, 100},
	}
	for _, c := range cases {
		if got := parent.dur() - unionLen(c.children, parent.Start, parent.End); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A scattered batch: three parallel backend calls, one of them a hedge's
// loser that outlives the router's handler. The parts must still sum to
// the root exactly, and the loser's tail must not count.
func TestLevelSelfSumsToRoot(t *testing.T) {
	root := sp(1, 0, "client.do", 0, 1000)
	spans := []span{
		root,
		sp(2, 1, "client.roundtrip", 10, 990),
		sp(3, 2, "router.handler", 100, 900),
		sp(4, 3, "router.backend_rt", 200, 500),
		sp(5, 3, "router.backend_rt", 250, 700),
		sp(6, 3, "router.backend_rt", 300, 950), // ends after the handler returned
		sp(7, 4, "backend.handler", 300, 400),
		sp(8, 5, "backend.handler", 350, 600),
		sp(9, 6, "backend.handler", 400, 650),
		sp(10, 99, "backend.handler", 0, 1000), // another operation's: no parent here
	}
	levels := []string{"client.roundtrip", "router.handler", "router.backend_rt", "backend.handler"}
	got := levelSelf(root, spans, levels)
	want := []int64{20, 180, 100, 350, 350}
	var total int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("level %d: self %d, want %d", i, got[i], want[i])
		}
		total += got[i]
	}
	if total != root.dur() {
		t.Errorf("parts sum to %d, root lasts %d", total, root.dur())
	}
}

// The wrappers carry the causing span across an HTTP hop: transport ->
// header -> handler -> context -> the next transport.
func TestSpansPropagateAcrossHTTP(t *testing.T) {
	rec := newRecorder()
	rec.enable(true)
	inner := httptest.NewServer(rec.handler("backend.handler", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})))
	defer inner.Close()
	hop := &http.Client{Transport: &spanTransport{rec: rec, name: "router.backend_rt", orphanName: "router.admin_rt", inner: http.DefaultTransport}}
	outer := httptest.NewServer(rec.handler("router.handler", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, inner.URL, nil)
		resp, err := hop.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})))
	defer outer.Close()

	root := rec.start("client.do", spanRef{Op: 42})
	req, _ := http.NewRequestWithContext(withRef(context.Background(), root.ref()), http.MethodGet, outer.URL, nil)
	front := &http.Client{Transport: &spanTransport{rec: rec, name: "client.roundtrip", inner: http.DefaultTransport}}
	resp, err := front.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	root.end()

	byName := map[string]span{}
	for _, s := range rec.all() {
		byName[s.Name] = s
		if s.Op != 42 {
			t.Errorf("span %s belongs to op %d, want 42", s.Name, s.Op)
		}
	}
	chain := []string{"client.do", "client.roundtrip", "router.handler", "router.backend_rt", "backend.handler"}
	for i := 1; i < len(chain); i++ {
		if byName[chain[i]].Parent != byName[chain[i-1]].ID || byName[chain[i]].ID == 0 {
			t.Errorf("%s (parent %d) is not caused by %s (id %d)", chain[i], byName[chain[i]].Parent, chain[i-1], byName[chain[i-1]].ID)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeJSONL(path, rec.all()); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var none *recorder
	o := none.start("x", spanRef{})
	o.attr("k", 1)
	o.end()
	rec := newRecorder()
	o = rec.start("x", spanRef{})
	o.end()
	if n := len(rec.all()); n != 0 {
		t.Errorf("a recorder that is off kept %d spans", n)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	rec := newRecorder()
	rec.enable(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o := rec.start("x", spanRef{Op: int64(g)})
				o.attr("i", float64(i))
				o.end()
			}
		}(g)
	}
	wg.Wait()
	ids := map[int64]bool{}
	for _, s := range rec.all() {
		ids[s.ID] = true
	}
	if len(ids) != 1600 {
		t.Errorf("%d distinct span ids, want 1600", len(ids))
	}
}
