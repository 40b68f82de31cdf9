package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/inproc"
	"repro/internal/oracle"
)

// postRecompute triggers a rollout at the router and requires the 202.
func postRecompute(t *testing.T, tc *testCluster) {
	t.Helper()
	if status, _ := tc.do(t, http.MethodPost, "/admin/recompute", "", nil); status != http.StatusAccepted {
		t.Fatalf("recompute trigger status %d, want 202", status)
	}
}

// awaitRollout waits up to 15 s for /healthz to answer 200 with no rollout
// running and done(health) true.
func (tc *testCluster) awaitRollout(t *testing.T, done func(clusterHealth) bool) {
	t.Helper()
	var h clusterHealth
	if inproc.Await(15*time.Second, func() bool {
		h = clusterHealth{}
		status, _ := tc.get(t, "/healthz", &h)
		return status == http.StatusOK && !h.Rollout && done(h)
	}) != nil {
		t.Fatalf("rollout never completed: %+v", h)
	}
}

// TestRouterRolloutOverlapsAutosave pins both halves of the two-phase
// rollout with AfterPublish hooks (the autosave) that block until
// released: the router triggers the next shard while the last one is
// still saving, and the rollout is not over until every hook returned.
func TestRouterRolloutOverlapsAutosave(t *testing.T) {
	tc := startCluster(t, 12, 3, 1, Options{RolloutPoll: 5 * time.Millisecond, RolloutTimeout: 10 * time.Second})
	saving := make([]chan uint64, 3)
	release := make([]func(), 3)
	triggered := make([]chan struct{}, 3)
	for k, backs := range tc.backs {
		srv := backs[0].Server()
		saving[k], triggered[k] = make(chan uint64, 1), make(chan struct{}, 1)
		gate := make(chan struct{})
		release[k] = sync.OnceFunc(func() { close(gate) })
		t.Cleanup(release[k])
		srv.AfterPublish = func(s *oracle.Snapshot) {
			saving[k] <- s.Gen()
			<-gate
		}
		recompute := srv.Recompute
		srv.Recompute = func(ctx context.Context) (*oracle.Snapshot, error) {
			triggered[k] <- struct{}{}
			return recompute(ctx)
		}
	}
	await := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	awaitSave := func(k int) {
		t.Helper()
		select {
		case gen := <-saving[k]:
			if gen != 2 {
				t.Fatalf("shard %d saves gen %d, want 2", k, gen)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("shard %d never reached its autosave", k)
		}
	}
	rolling := func() bool {
		var h clusterHealth
		tc.get(t, "/healthz", &h)
		return h.Rollout && tc.router.Metrics().RolloutActive.Value() == 1
	}

	postRecompute(t, tc)
	awaitSave(0)
	// (a) Shard 0 is still inside its save: shard 1 must be triggered anyway.
	await("shard 1's recompute while shard 0 saves", triggered[1])
	awaitSave(1)
	await("shard 2's recompute while shards 0 and 1 save", triggered[2])
	awaitSave(2)
	// (b) Every shard published, two saves are released: the rollout is
	// still active until the last save returns.
	release[0]()
	release[1]()
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if !rolling() {
			t.Fatal("rollout reported finished while shard 2 is still saving")
		}
	}
	release[2]()
	if inproc.Await(5*time.Second, func() bool { return !rolling() }) != nil {
		t.Fatal("rollout still active after every save returned")
	}
	// (c) Every shard serves the new generation; nothing failed.
	var h clusterHealth
	if status, _ := tc.get(t, "/healthz", &h); status != http.StatusOK {
		t.Fatalf("healthz after the rollout: %d %+v", status, h)
	}
	for _, sh := range h.Shards {
		if sh.Gen != 2 {
			t.Fatalf("shard %d at gen %d after the rollout, want 2", sh.ID, sh.Gen)
		}
	}
	if v := tc.router.Metrics().RolloutFails.Value(); v != 0 {
		t.Fatalf("RolloutFails = %v, want 0", v)
	}
}

// syncBuffer is a log sink the rollout goroutine writes while the test
// reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRouterRolloutCrashBeforeSave kills shard 0 between its publish and
// its autosave during a router rollout and restarts it from its autosave
// dir, as apspd boots. The later shards roll anyway; the settle phase sees
// the replica back at an older generation and fails the rollout at once,
// not at the timeout; the restart serves the previous generation; and no
// answer through the router is wrong.
func TestRouterRolloutCrashBeforeSave(t *testing.T) {
	var logs syncBuffer
	const timeout = 10 * time.Second
	tc := startCluster(t, 24, 3, 1, Options{RolloutPoll: 5 * time.Millisecond, RolloutTimeout: timeout,
		Log: slog.New(slog.NewTextHandler(&logs, nil))})
	b := tc.backs[0][0]
	laterRolled := func() bool {
		return tc.backs[1][0].Server().Store.Current().Gen() == 2 && tc.backs[2][0].Server().Store.Current().Gen() == 2
	}
	// Shard 0 sits between its publish and its save until the later shards
	// rolled, then its armed hook kills it in place of the save.
	srv := b.Server()
	die := srv.AfterPublish
	srv.AfterPublish = func(s *oracle.Snapshot) {
		if inproc.Await(5*time.Second, laterRolled) != nil {
			t.Error("shards 1 and 2 did not roll while shard 0 sat between its publish and its save")
		}
		die(s)
	}
	b.Crash()

	// A reader beside the rollout; every answer it gets must be right.
	want := make([][]int64, tc.g.N())
	for s := range want {
		want[s] = graph.Dijkstra(tc.g, s)
	}
	var wrong []string
	var mu sync.Mutex
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(stopCh); wg.Wait() })
	t.Cleanup(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopCh:
				return
			default:
			}
			if why := checkDist(tc, want, i%24, (i*7)%24); why != "" {
				mu.Lock()
				wrong = append(wrong, why)
				mu.Unlock()
			}
		}
	}()

	postRecompute(t, tc)
	if inproc.Await(timeout, func() bool { return b.Server() == nil }) != nil {
		t.Fatal("shard 0 never died")
	}
	time.Sleep(20 * time.Millisecond) // a few failed polls while the replica is down
	if recovered, err := b.Restart(tc.g); err != nil || !recovered {
		t.Fatalf("restart from %s: recovered %v, err %v", b.Dir, recovered, err)
	}
	at := time.Now()
	if inproc.Await(timeout/2, func() bool { return tc.router.Metrics().RolloutActive.Value() == 0 }) != nil {
		t.Fatal("rollout still active long after shard 0 came back at an older generation")
	}
	if d := time.Since(at); d > timeout/4 {
		t.Fatalf("rollout ended %v after the restart: that is the timeout, not the generation check", d)
	}
	stop()
	if v := tc.router.Metrics().RolloutFails.Value(); v != 1 {
		t.Fatalf("RolloutFails = %v, want 1", v)
	}
	if rec := logs.String(); !strings.Contains(rec, "rollout aborted") || !strings.Contains(rec, "http://"+b.Host) ||
		!strings.Contains(rec, "restarted before its save") {
		t.Fatalf("abort record does not name the lost replica:\n%s", rec)
	}

	// The restart serves the autosave of gen 1; the gen-2 save never ran.
	if saved, _ := filepath.Glob(filepath.Join(b.Dir, "*-g2.snap")); len(saved) != 0 {
		t.Fatalf("gen 2 reached the disk: %v", saved)
	}
	var h clusterHealth
	tc.get(t, "/healthz", &h)
	for _, sh := range h.Shards {
		if wantGen := map[bool]uint64{true: 1, false: 2}[sh.ID == 0]; sh.Gen != wantGen {
			t.Fatalf("shard %d at gen %d after the aborted rollout, want %d", sh.ID, sh.Gen, wantGen)
		}
	}
	for s := range 24 {
		for _, d := range []int{0, 5, 11, 23} {
			if why := checkDist(tc, want, s, d); why != "" {
				wrong = append(wrong, why)
			}
		}
	}
	if len(wrong) > 0 {
		t.Fatalf("%d wrong answers, first: %s", len(wrong), wrong[0])
	}
}

// checkDist asks the router for dist(src, dst) and returns why the answer
// is wrong, or "" (a refusal or a failed request states no fact).
func checkDist(tc *testCluster, want [][]int64, src, dst int) string {
	resp, err := tc.http.Get(fmt.Sprintf("http://router/dist?src=%d&dst=%d", src, dst))
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var a oracle.Answer
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&a) != nil || a.Src != src || a.Dst != dst {
		return ""
	}
	switch {
	case want[src][dst] >= graph.Inf && a.Reachable:
		return fmt.Sprintf("dist(%d,%d) reachable, Dijkstra says not", src, dst)
	case want[src][dst] < graph.Inf && (a.Dist == nil || *a.Dist != want[src][dst]):
		return fmt.Sprintf("dist(%d,%d) = %v, Dijkstra %d", src, dst, a.Dist, want[src][dst])
	}
	return ""
}
