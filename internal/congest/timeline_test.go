package congest

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// sumCounts sums a timeline's per-round counts.
func sumCounts(counts []int) int {
	s := 0
	for _, c := range counts {
		s += c
	}
	return s
}

func TestTimelineObserve(t *testing.T) {
	var tl Timeline
	tl.Observe(1, 5)
	tl.Observe(2, 0)
	tl.Observe(4, 7) // round 3 skipped: must be zero-filled
	if len(tl.Counts) != 4 || tl.Counts[2] != 0 || tl.Counts[3] != 7 {
		t.Fatalf("Counts = %v", tl.Counts)
	}
	if tl.Peak() != 7 || sumCounts(tl.Counts) != 12 {
		t.Fatalf("peak %d total %d", tl.Peak(), sumCounts(tl.Counts))
	}
}

func TestSparkline(t *testing.T) {
	var tl Timeline
	for r := 1; r <= 100; r++ {
		tl.Observe(r, r%10)
	}
	s := tl.Sparkline(20)
	if len([]rune(s)) != 20 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	if !strings.ContainsRune(s, '█') {
		t.Fatalf("no full block in %q", s)
	}
	if tl.Sparkline(0) != "" {
		t.Fatal("width 0 should render empty")
	}
	var empty Timeline
	if empty.Sparkline(10) != "" {
		t.Fatal("empty timeline should render empty")
	}
}

func TestSparklineAllZero(t *testing.T) {
	var tl Timeline
	tl.Observe(1, 0)
	tl.Observe(2, 0)
	s := tl.Sparkline(10)
	if s != "▁▁" {
		t.Fatalf("all-zero sparkline = %q", s)
	}
}

func TestSparklineWidthExceedsCounts(t *testing.T) {
	var tl Timeline
	tl.Observe(1, 3)
	tl.Observe(2, 9)
	tl.Observe(3, 1)
	// width > len(Counts) must clamp to one rune per round, not pad or
	// divide by zero.
	s := []rune(tl.Sparkline(50))
	if len(s) != 3 {
		t.Fatalf("sparkline %q has %d runes, want 3 (clamped to len(Counts))", string(s), len(s))
	}
	if s[1] != '█' {
		t.Fatalf("peak round not rendered as full block in %q", string(s))
	}
}

func TestTimelineObserveSkipsFarAhead(t *testing.T) {
	var tl Timeline
	tl.Observe(1, 2)
	tl.Observe(10, 4) // rounds 2..9 skipped: the zero-fill loop covers them
	if len(tl.Counts) != 10 {
		t.Fatalf("len(Counts) = %d, want 10", len(tl.Counts))
	}
	for r := 2; r <= 9; r++ {
		if tl.Counts[r-1] != 0 {
			t.Fatalf("skipped round %d holds %d, want 0", r, tl.Counts[r-1])
		}
	}
	if sumCounts(tl.Counts) != 6 || tl.Peak() != 4 {
		t.Fatalf("total %d peak %d", sumCounts(tl.Counts), tl.Peak())
	}
	// Observing an already-recorded round overwrites, not appends.
	tl.Observe(10, 5)
	if len(tl.Counts) != 10 || tl.Counts[9] != 5 {
		t.Fatalf("re-observe: Counts = %v", tl.Counts)
	}
}

func TestTimelineWithEngine(t *testing.T) {
	g := graph.Path(6, graph.GenOpts{Seed: 1, MaxW: 1})
	var tl Timeline
	stats, err := Run(g, newFlood, Config{Observer: tl.Observer()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sumCounts(tl.Counts) != int(stats.Messages) {
		t.Fatalf("timeline total %d != stats messages %d", sumCounts(tl.Counts), stats.Messages)
	}
	if len(tl.Counts) < stats.Rounds {
		t.Fatalf("timeline rounds %d < stats rounds %d", len(tl.Counts), stats.Rounds)
	}
}
