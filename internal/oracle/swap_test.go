package oracle

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestHotSwapUnderLoad is the zero-downtime gate: 10k queries race an
// aggressive stream of snapshot swaps, and every single one must succeed
// (no 5xx, no shed) and be answered wholly by one published generation —
// never a torn or intermediate state. Distances differ between the two
// graphs, so a mixed answer would be caught by the per-generation oracle
// check, not just the gen field.
func TestHotSwapUnderLoad(t *testing.T) {
	sources := []int{0, 3, 7}
	gA, _, inA := testInput(t, 16, 48, 31, sources)
	snapA, err := Build(gA, inA, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	gB, _, inB := testInput(t, 16, 48, 77, sources) // different seed → different distances
	snapB, err := Build(gB, inB, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// 32 workers stay far below the admission ceiling: this gate must see
	// zero sheds.
	srv := &Server{Store: &Store{}, Cache: NewPathCache(256), Met: NewMetrics()}
	srv.Publish(snapA)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// wantByGen[gen][row·16+v] is the only acceptable answer for that gen.
	wantByGen := map[uint64][]int64{snapA.Gen(): inA.Dist}

	const queries = 10_000
	const workers = 32
	var (
		done     atomic.Int64
		failures atomic.Int64
		mu       sync.Mutex
		firstErr string
	)
	report := func(format string, args ...any) {
		failures.Add(1)
		mu.Lock()
		if firstErr == "" {
			firstErr = fmt.Sprintf(format, args...)
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for q := w; q < queries; q += workers {
				row := q % len(sources)
				v := q % 16
				url := fmt.Sprintf("%s/dist?src=%d&dst=%d", ts.URL, sources[row], v)
				resp, err := client.Get(url)
				if err != nil {
					report("query %d: %v", q, err)
					continue
				}
				var dr distResp
				decErr := json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					report("query %d: status %d, decode %v", q, resp.StatusCode, decErr)
					continue
				}
				mu.Lock()
				want, known := wantByGen[dr.Gen]
				mu.Unlock()
				if !known {
					report("query %d answered from unpublished generation %d", q, dr.Gen)
					continue
				}
				wantD := want[row*16+v]
				switch {
				case wantD >= graph.Inf:
					if dr.Reachable {
						report("query %d: gen %d should be unreachable, got %+v", q, dr.Gen, dr)
					}
				case dr.Dist == nil || *dr.Dist != wantD:
					report("query %d: gen %d dist %+v, want %d", q, dr.Gen, dr, wantD)
				}
				done.Add(1)
			}
		}(w)
	}

	// Swap continuously while the load runs: A and B alternate, and each
	// publish lands mid-traffic.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		next := []*Snapshot{snapB, snapA}
		for i := 0; done.Load()+failures.Add(0) < queries; i++ {
			// Re-Build so each publish is a fresh snapshot with a new gen
			// (Publish mutates gen; snapshots are single-publish).
			src := next[i%2]
			in, g := inA, gA
			if src == snapB {
				in, g = inB, gB
			}
			fresh, err := Build(g, in, BuildOpts{})
			if err != nil {
				report("rebuild: %v", err)
				return
			}
			mu.Lock()
			gen := srv.Publish(fresh)
			wantByGen[gen] = in.Dist
			mu.Unlock()
			if gen > 1_000_000 {
				return // safety net; never expected
			}
			time.Sleep(100 * time.Microsecond) // dozens of swaps per run, not millions
		}
	}()
	wg.Wait()
	<-swapDone

	if failures.Load() != 0 {
		t.Fatalf("%d of %d queries failed during hot swap; first: %s", failures.Load(), queries, firstErr)
	}
	if done.Load() != queries {
		t.Fatalf("only %d of %d queries completed", done.Load(), queries)
	}
	if shed := srv.Met.Shed.Value(); shed != 0 {
		t.Fatalf("%v queries shed during swap; the gate requires zero", shed)
	}
	if swaps := srv.Met.Swaps.Value(); swaps < 2 {
		t.Fatalf("only %v swaps happened; load finished before any swap pressure", swaps)
	}
}
