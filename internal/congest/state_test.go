package congest_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/graph"
)

// TestRestoreRefusesWrongFieldLengths resumes a mid-run Bellman–Ford
// snapshot with one per-node field cut to n−1 entries or grown to n+1, and
// expects the resume to be refused: a short Inbox would drop staged
// messages and end in wrong distances, a long one would be ignored.
func TestRestoreRefusesWrongFieldLengths(t *testing.T) {
	g := graph.Random(16, 48, graph.GenOpts{Seed: 4, MaxW: 9})
	n := g.N()
	mk := bellman.NewNode(&bellman.Opts{Sources: []int{0, 5}, H: n - 1})
	var snap *congest.Snapshot
	pol := &congest.CheckpointPolicy{AtRound: 4, Sink: func(s *congest.Snapshot) error { snap = s; return nil }}
	if _, err := congest.Run(g, mk, congest.Config{Checkpoint: pol}); !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("kill at round 4: %v", err)
	}
	staged := 0
	for _, b := range snap.Inbox {
		if len(b) > 0 {
			staged++
		}
	}
	if staged == 0 {
		t.Fatal("the snapshot stages no message, so a wrong Inbox length could go unnoticed")
	}
	if _, err := congest.Run(g, mk, congest.Config{Checkpoint: &congest.CheckpointPolicy{Resume: snap}}); err != nil {
		t.Fatalf("the unaltered snapshot does not resume: %v", err)
	}

	resize := func(s *congest.Snapshot, field string, m int) {
		switch field {
		case "Nodes":
			s.Nodes = resized(s.Nodes, m)
		case "NodeSends":
			s.NodeSends = resized(s.NodeSends, m)
		case "LinkLoad":
			s.LinkLoad = resized(s.LinkLoad, m)
		case "Inbox":
			s.Inbox = resized(s.Inbox, m)
		}
	}
	for _, field := range []string{"Nodes", "NodeSends", "LinkLoad", "Inbox"} {
		for _, m := range []int{n - 1, n + 1} {
			t.Run(fmt.Sprintf("%s/%d", field, m), func(t *testing.T) {
				bad := *snap
				resize(&bad, field, m)
				_, err := congest.Run(g, mk, congest.Config{Checkpoint: &congest.CheckpointPolicy{Resume: &bad}})
				if err == nil || !strings.Contains(err.Error(), "field lengths do not match") {
					t.Fatalf("resume with %d %s entries for n=%d: err = %v, want a refusal", m, field, n, err)
				}
			})
		}
	}
}

// resized returns a copy of s cut or zero-padded to m entries.
func resized[T any](s []T, m int) []T {
	if m <= len(s) {
		return s[:m:m]
	}
	return append(slices.Clip(s), make([]T, m-len(s))...)
}
