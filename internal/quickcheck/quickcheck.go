// Package quickcheck runs testing/quick properties on seeds a failure can
// be replayed from. testing/quick's default Rand is seeded from the clock,
// so a counterexample it finds once in a while is gone on the next run.
package quickcheck

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Check runs the property f maxCount times from a fixed seed — what failed
// there once fails there on every run — and maxCount times from a fresh
// seed, logged first, so rare counterexamples are still looked for and a
// CI log is enough to run the same sequence again (put the logged seed in
// place of the fresh one). A failure names its seed and, through
// testing/quick, the inputs of the failing call.
func Check(t *testing.T, f any, maxCount int) {
	t.Helper()
	fresh := time.Now().UnixNano()
	t.Logf("testing/quick seeds: 1 (fixed), %d (fresh)", fresh)
	for _, seed := range []int64{1, fresh} {
		cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
