package client

import (
	"slices"
	"sync"
	"time"
)

// latWindow is a fixed-size ring of recent attempt latencies with a
// sorted shadow of the same samples. observe keeps the shadow sorted by
// binary search, deleting the evicted sample and inserting the new one,
// so quantile — read on every hedged request — is one index.
type latWindow struct {
	mu     sync.Mutex
	ring   []time.Duration // samples in arrival order; ring[next] is the oldest once full
	sorted []time.Duration // the same samples, ascending
	next   int
}

func newLatWindow(size int) *latWindow {
	return &latWindow{ring: make([]time.Duration, size), sorted: make([]time.Duration, 0, size)}
}

func (w *latWindow) observe(d time.Duration) {
	w.mu.Lock()
	if len(w.sorted) == len(w.ring) {
		// Any copy of the evicted value will do: equal samples are
		// indistinguishable in the shadow.
		r, _ := slices.BinarySearch(w.sorted, w.ring[w.next])
		w.sorted = slices.Delete(w.sorted, r, r+1)
	}
	p, _ := slices.BinarySearch(w.sorted, d)
	w.sorted = slices.Insert(w.sorted, p, d) // within capacity: no allocation
	w.ring[w.next] = d
	w.next++
	if w.next == len(w.ring) {
		w.next = 0
	}
	w.mu.Unlock()
}

// quantile returns the q-quantile of the window (0 when empty): the
// sample at rank int(q·n+0.5), clamped to [1, n].
func (w *latWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.sorted)
	if n == 0 {
		return 0
	}
	i := min(max(int(q*float64(n)+0.5)-1, 0), n-1)
	return w.sorted[i]
}
