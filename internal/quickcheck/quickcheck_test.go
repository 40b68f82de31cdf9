package quickcheck

import (
	"slices"
	"testing"
)

// TestCheckSeeds: the first maxCount inputs come from the fixed seed and
// are the same on every run; the fresh seed supplies maxCount more.
func TestCheckSeeds(t *testing.T) {
	draw := func() []uint32 {
		var seen []uint32
		Check(t, func(x uint32) bool { seen = append(seen, x); return true }, 10)
		return seen
	}
	a, b := draw(), draw()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("property ran %d and %d times, want 20", len(a), len(b))
	}
	if !slices.Equal(a[:10], b[:10]) {
		t.Errorf("fixed-seed inputs differ between runs: %v vs %v", a[:10], b[:10])
	}
	if slices.Equal(a[10:], b[10:]) {
		t.Errorf("fresh-seed inputs repeat between runs: %v", a[10:])
	}
}
