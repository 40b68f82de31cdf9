package inproc

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// closeCounter is a request body that counts its Close calls.
type closeCounter struct {
	io.Reader
	closed atomic.Int32
}

func (c *closeCounter) Close() error { c.closed.Add(1); return nil }

// TestNetKillContract pins what a kill on a Net means: the request in
// flight on the host fails with ErrReset, the next one is refused with
// ErrRefused, Set on the same host serves again, and the request body is
// closed on each of those paths.
func TestNetKillContract(t *testing.T) {
	var n Net
	entered, release := make(chan struct{}), make(chan struct{})
	n.Set("h", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/block" {
			entered <- struct{}{}
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
		io.WriteString(w, "ok")
	}))
	send := func(path string) (*http.Response, *closeCounter, error) {
		body := &closeCounter{Reader: strings.NewReader("q")}
		req, err := http.NewRequest(http.MethodPost, "http://h"+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := n.RoundTrip(req)
		return resp, body, err
	}
	closedOnce := func(what string, body *closeCounter) {
		t.Helper()
		if got := body.closed.Load(); got != 1 {
			t.Errorf("%s: request body closed %d times, want 1", what, got)
		}
	}

	resp, body, err := send("/")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("live host: %v %v", resp, err)
	}
	closedOnce("served", body)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, body, err := send("/block")
		if !errors.Is(err, ErrReset) || !strings.Contains(err.Error(), "h: ") {
			t.Errorf("in-flight request on a killed host: err %v, want ErrReset naming the host", err)
		}
		closedOnce("killed in flight", body)
	}()
	<-entered
	n.Set("h", nil)
	<-done

	if _, body, err := send("/"); !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "dial h") {
		t.Errorf("request to a killed host: err %v, want ErrRefused naming the host", err)
	} else {
		closedOnce("refused", body)
	}

	n.Set("h", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "again") }))
	resp, body, err = send("/")
	if err != nil {
		t.Fatalf("host set again: %v", err)
	}
	if got, _ := io.ReadAll(resp.Body); string(got) != "again" {
		t.Errorf("host set again answered %q", got)
	}
	closedOnce("served again", body)
	close(release)
}

// TestBackendLifecycle drives one backend through a cold boot, a recompute
// and its autosave, a kill, a restart that recovers from the autosave dir,
// and an armed crash that dies at the publish without saving.
func TestBackendLifecycle(t *testing.T) {
	g := graph.Random(10, 30, graph.GenOpts{Seed: 3, MaxW: 5, Directed: true})
	var n Net
	b := &Backend{Net: &n, Host: "b", Dir: filepath.Join(t.TempDir(), "auto"), ShardID: "0/1", Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Build: func(g *graph.Graph) (*oracle.Snapshot, error) {
			sources, dist := make([]int, g.N()), make([][]int64, g.N())
			for s := range sources {
				sources[s], dist[s] = s, graph.Dijkstra(g, s)
			}
			return oracle.Build(g, oracle.BuildInput{Alg: "dijkstra", Matrix: family.FromRows(sources, g.N(), dist, nil, nil)},
				oracle.BuildOpts{Fingerprint: checkpoint.Fingerprint(g)})
		},
		Next: func(uint64) *graph.Graph { return g }}
	client := &http.Client{Transport: &n}
	health := func() (h oracle.Health) {
		t.Helper()
		resp, err := client.Get("http://b/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	saves := func() int {
		names, _ := filepath.Glob(filepath.Join(b.Dir, "*.snap"))
		return len(names)
	}

	if recovered, err := b.Restart(g); err != nil || recovered {
		t.Fatalf("first boot: recovered %v, err %v; want a cold build", recovered, err)
	}
	if h := health(); h.Gen != 1 || h.Shard != "0/1" || saves() != 1 || b.Saved() != g {
		t.Fatalf("after the cold boot: health %+v, %d saves, saved graph %v", h, saves(), b.Saved() != nil)
	}
	resp, err := client.Post("http://b/admin/recompute", "", nil)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("recompute trigger: %v %v", resp, err)
	}
	resp.Body.Close()
	if err := Await(5*time.Second, func() bool { h := health(); return h.Gen == 2 && !h.Recomputing }); err != nil {
		t.Fatal("recompute never published and saved gen 2: ", err)
	}
	if !b.Kill() || b.Kill() || b.Server() != nil {
		t.Fatal("Kill must report up once, then down")
	}
	if _, err := client.Get("http://b/healthz"); !errors.Is(err, ErrRefused) {
		t.Fatalf("killed backend: err %v, want ErrRefused", err)
	}
	if recovered, err := b.Restart(g); err != nil || !recovered {
		t.Fatalf("restart: recovered %v, err %v; want the autosave", recovered, err)
	}
	before := saves()
	if !b.Crash() {
		t.Fatal("Crash on a live backend reported it down")
	}
	snap, err := b.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	b.Server().Publish(snap)
	if b.Server() != nil || saves() != before {
		t.Fatalf("armed crash: up %v, saves %d -> %d; want dead with nothing saved", b.Server() != nil, before, saves())
	}
	if b.Crash() {
		t.Fatal("Crash on a dead backend reported it up")
	}
	if err := Await(time.Millisecond, func() bool { return false }); err == nil {
		t.Fatal("Await of a false condition returned nil")
	}
}
