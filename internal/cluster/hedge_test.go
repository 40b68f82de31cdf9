package cluster

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRouterHedgesAcrossReplicas is the cross-replica hedging gate
// (satellite of the cluster PR): with one of a shard's two replicas
// blackholed, a routed query must still answer fast — the hedge fires
// after HedgeDelay, the replica rotation lands it on the healthy replica,
// and the router's HedgeWins accounting shows the rescue. A blackholed
// replica costs one hedge delay, not an attempt timeout.
func TestRouterHedgesAcrossReplicas(t *testing.T) {
	tc := startCluster(t, 8, 1, 2, Options{AttemptTimeout: 2 * time.Second, MaxAttempts: 3, HedgeDelay: 5 * time.Millisecond, Seed: 11})
	// Replica 0 blackholes every request: it takes it and never answers.
	var blackholes atomic.Int64
	tc.net.Set(tc.backs[0][0].Host, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		blackholes.Add(1)
		<-r.Context().Done()
	}))

	for i := 0; i < 8; i++ {
		start := time.Now()
		var d struct {
			Gen uint64 `json:"gen"`
		}
		status, _ := tc.get(t, fmt.Sprintf("/dist?src=%d&dst=0", i), &d)
		if status != http.StatusOK || d.Gen != 1 {
			t.Fatalf("dist(%d,0) through a half-blackholed shard: status %d gen %d", i, status, d.Gen)
		}
		// The healthy answer must arrive via the hedge, far inside the
		// attempt timeout the blackholed primary would burn.
		if dur := time.Since(start); dur > time.Second {
			t.Fatalf("dist(%d,0) took %v — hedging did not rescue the blackholed primary", i, dur)
		}
	}
	if blackholes.Load() == 0 {
		t.Fatal("the faulty replica was never hit — the test proved nothing")
	}

	// The rescue is visible in the router's own accounting, via the same
	// /metrics surface operators scrape.
	resp, err := tc.http.Get("http://router/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hedges, wins float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "router_client_hedges_total") {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &hedges)
		}
		if strings.HasPrefix(line, "router_client_hedge_wins_total") {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &wins)
		}
	}
	if hedges == 0 || wins == 0 {
		t.Fatalf("hedges=%v wins=%v, want both > 0 (HedgeWins must be observed)", hedges, wins)
	}
}

// countingHandler wraps a backend handler and counts recompute triggers.
type countingHandler struct {
	inner      http.Handler
	recomputes atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/admin/recompute" {
		h.recomputes.Add(1)
	}
	h.inner.ServeHTTP(w, r)
}

// TestRouterNeverHedgesMutations: a rollout's /admin/recompute trigger
// reaches each replica EXACTLY once — no hedge, no retry, no duplicate
// side-effect — even though the router hedges queries freely against the
// same replicas. The counting handlers are installed before any traffic
// flows, so the counts are exhaustive.
func TestRouterNeverHedgesMutations(t *testing.T) {
	tc := startCluster(t, 8, 1, 2, Options{HedgeDelay: time.Millisecond, Seed: 5,
		RolloutPoll: 5 * time.Millisecond, RolloutTimeout: 10 * time.Second})
	counters := make([]*countingHandler, 2)
	for r, b := range tc.backs[0] {
		counters[r] = &countingHandler{inner: b.Server().Handler()}
		tc.net.Set(b.Host, counters[r])
	}
	postRecompute(t, tc)
	tc.awaitRollout(t, func(h clusterHealth) bool { return len(h.Shards) == 1 && h.Shards[0].Gen >= 2 })
	for r, c := range counters {
		if got := c.recomputes.Load(); got != 1 {
			t.Fatalf("recompute reached replica %d %d times, want exactly 1 (mutations must never hedge or retry)", r, got)
		}
	}
}
