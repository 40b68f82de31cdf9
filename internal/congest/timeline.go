package congest

import "strings"

// Timeline records per-round message counts (attach Observer() to
// Config.Observer) and renders them as a sparkline — a compact view of an
// algorithm's communication profile over time, used by cmd/apsprun and in
// experiment write-ups.
type Timeline struct {
	Counts []int
}

// Observer adapts the timeline to the engine's Observer interface.
func (t *Timeline) Observer() Observer { return RoundFunc(t.Observe) }

// Observe records one round's message count. Rounds arrive in order
// starting at 1; skipped-ahead round indices zero-fill the gap.
func (t *Timeline) Observe(round, msgs int) {
	// Rounds arrive in order starting at 1.
	for len(t.Counts) < round {
		t.Counts = append(t.Counts, 0)
	}
	t.Counts[round-1] = msgs
}

// Peak returns the maximum per-round message count.
func (t *Timeline) Peak() int {
	p := 0
	for _, c := range t.Counts {
		if c > p {
			p = c
		}
	}
	return p
}

var sparks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the timeline downsampled to at most width buckets
// (each bucket shows its maximum). Empty timeline renders as "".
func (t *Timeline) Sparkline(width int) string {
	n := len(t.Counts)
	if n == 0 || width <= 0 {
		return ""
	}
	if width > n {
		width = n
	}
	buckets := make([]int, width)
	for i, c := range t.Counts {
		b := i * width / n
		if c > buckets[b] {
			buckets[b] = c
		}
	}
	peak := 0
	for _, b := range buckets {
		if b > peak {
			peak = b
		}
	}
	if peak == 0 {
		return strings.Repeat(string(sparks[0]), width)
	}
	var sb strings.Builder
	for _, b := range buckets {
		idx := b * (len(sparks) - 1) / peak
		sb.WriteRune(sparks[idx])
	}
	return sb.String()
}
