package oracle

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseExposition extracts `name{labels} value` samples from a classic
// text exposition, failing on any line that is neither a comment nor a
// well-formed sample.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	return out
}

// TestServerScrapeUnderLoad hammers /batch while /metrics is scraped and
// fresh snapshots are hot-swapped in, all at once; run under -race this is
// the data-race check, and every scrape must stay parseable with the
// monotone series (queries, swaps) never moving backwards.
func TestServerScrapeUnderLoad(t *testing.T) {
	g, _, in := testInput(t, 16, 48, 21, []int{0, 2, 5, 9})
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Store: &Store{}, Cache: NewPathCache(128), Met: NewMetrics()}
	srv.Publish(snap)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	src := snap.Sources()[0]
	var queries []Query
	for v := 0; v < snap.N(); v++ {
		queries = append(queries, Query{Kind: "dist", Src: src, Dst: v})
		queries = append(queries, Query{Kind: "path", Src: src, Dst: v})
	}
	body := batchBody(queries)

	const (
		batchWorkers = 4
		batchesEach  = 25
		swaps        = 20
		scrapes      = 40
	)
	var wg sync.WaitGroup

	for w := 0; w < batchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batchesEach; i++ {
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			fresh, err := Build(g, in, BuildOpts{})
			if err != nil {
				t.Errorf("rebuild %d: %v", i, err)
				return
			}
			srv.Publish(fresh)
			time.Sleep(time.Millisecond)
		}
	}()

	scrape := func(accept string) string {
		req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("scrape: %v", err)
			return ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("scrape status %d", resp.StatusCode)
		}
		return string(b)
	}

	wg.Add(1)
	var mu sync.Mutex
	var exposures []map[string]float64
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			accept := ""
			if i%2 == 1 {
				accept = "application/openmetrics-text"
			}
			body := scrape(accept)
			if body == "" {
				return
			}
			if accept != "" {
				// Strip OpenMetrics-only syntax before the shared parser.
				var classic []string
				for _, line := range strings.Split(body, "\n") {
					if line == "# EOF" {
						continue
					}
					if idx := strings.Index(line, " # {"); idx >= 0 {
						line = line[:idx]
					}
					classic = append(classic, line)
				}
				body = strings.Join(classic, "\n")
			}
			samples := parseExposition(t, body)
			mu.Lock()
			exposures = append(exposures, samples)
			mu.Unlock()
			time.Sleep(500 * time.Microsecond)
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	if len(exposures) != scrapes {
		t.Fatalf("%d scrapes recorded, want %d", len(exposures), scrapes)
	}
	monotone := []string{
		`apspd_queries_total{kind="batch"}`,
		`apspd_snapshot_swaps_total`,
		`apspd_errors_total`,
	}
	for _, name := range monotone {
		prev := -1.0
		seen := false
		for i, samples := range exposures {
			v, ok := samples[name]
			if !ok {
				continue
			}
			seen = true
			if v < prev {
				t.Errorf("%s moved backwards at scrape %d: %v -> %v", name, i, prev, v)
			}
			prev = v
		}
		if !seen {
			t.Errorf("series %s never appeared in any scrape", name)
		}
	}

	// The scraper may finish before the last batches do, so re-scrape once
	// everything is quiet for the exact totals.
	final := parseExposition(t, scrape(""))
	if got := final[`apspd_queries_total{kind="batch"}`]; got != float64(batchWorkers*batchesEach) {
		t.Errorf(`apspd_queries_total{kind="batch"} = %v, want %d`, got, batchWorkers*batchesEach)
	}
	if got := final[`apspd_snapshot_swaps_total`]; got != float64(swaps+1) {
		t.Errorf("apspd_snapshot_swaps_total = %v, want %d", got, swaps+1)
	}
}
