package difftest

// DDMin is the generic delta-debugging list minimizer behind the fault
// shrinkers: given a failing item list and a deterministic predicate, it
// drops halves while the failure persists, then single items, repeated to
// a fixpoint. fails must be true for the input list (otherwise the input
// is returned unchanged) and deterministic — DDMin revisits candidates
// and assumes stable answers. The result is a locally minimal sublist
// that still fails.
//
// The engine-level shrinker (Shrink) keeps its richer multi-dimension
// reduction; DDMin is the reusable core for one-dimensional event lists,
// e.g. HTTPScript's events.
func DDMin[T any](items []T, fails func([]T) bool) []T {
	cur := append([]T(nil), items...)
	if !fails(cur) {
		return cur
	}
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := make([]T, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if fails(cand) {
				cur = cand // keep start: the tail shifted into place
			} else {
				start += chunk
			}
		}
	}
	return cur
}
