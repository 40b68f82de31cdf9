package faults

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGoldenPhysStats pins the physical-delivery profile of a fixed
// Bellman-Ford run under the standard chaos plan. The shim's PRF, the
// retransmit timer and the barrier loop are all deterministic, so any code
// change that alters how many transmissions the adversary sees — not just
// whether the result is correct — shows up as a diff against this file.
// Regenerate deliberately with `go test ./internal/faults/ -run Golden -update`.
func TestGoldenPhysStats(t *testing.T) {
	g := graph.Random(16, 48, graph.GenOpts{Seed: 3, MaxW: 5, Directed: true})
	nw := New(All(42))
	res, err := bellman.Run(g, bellman.Opts{Sources: []int{0, 1}, H: 4, Engine: congest.Config{Network: nw}})
	if err != nil {
		t.Fatal(err)
	}
	snap := struct {
		Plan  string        `json:"plan"`
		Stats congest.Stats `json:"logical_stats"`
		Phys  PhysStats     `json:"phys"`
	}{Plan: All(42).String(), Stats: res.Stats, Phys: nw.Phys()}
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_phys.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("physical stats drifted from golden snapshot (run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}
