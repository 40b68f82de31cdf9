package apsp

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/congest"
)

// TestCheckpointTornWriteSweep truncates a known-good checkpoint at every
// byte boundary and requires Load to fail loudly on each prefix — a torn
// write must never parse into a shorter-but-plausible snapshot. The
// committed compat fixture is the source so the sweep also covers the
// exact on-disk layout the format gate pins.
func TestCheckpointTornWriteSweep(t *testing.T) {
	src := filepath.Join("testdata", "compat", "core-active.ckpt")
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-compat?): %v", err)
	}
	if _, _, err := checkpoint.Load(src); err != nil {
		t.Fatalf("fixture itself does not load: %v", err)
	}
	torn := filepath.Join(t.TempDir(), "torn.ckpt")
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		meta, snap, err := checkpoint.Load(torn)
		if err == nil {
			t.Fatalf("truncation at byte %d of %d loaded silently (meta=%+v snap=%v)",
				cut, len(whole), meta, snap != nil)
		}
	}
	// And garbage past the container must be rejected too, not ignored.
	if err := os.WriteFile(torn, append(append([]byte(nil), whole...), 0xAB), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkpoint.Load(torn); err == nil {
		t.Fatal("trailing garbage byte loaded silently")
	}
}

// stateBlobs lists s's node blobs, then its Net and Obs blobs when present.
func stateBlobs(s *congest.Snapshot) []*[]byte {
	bs := make([]*[]byte, 0, len(s.Nodes)+2)
	for i := range s.Nodes {
		bs = append(bs, &s.Nodes[i])
	}
	for _, b := range []*[]byte{&s.Net, &s.Obs} {
		if *b != nil {
			bs = append(bs, b)
		}
	}
	return bs
}

// loadCompat loads every compat fixture's snapshot.
func loadCompat(tb testing.TB, cases []compatCase) []*congest.Snapshot {
	snaps := make([]*congest.Snapshot, len(cases))
	for i, c := range cases {
		_, snap, err := checkpoint.Load(compatPath(c))
		if err != nil {
			tb.Fatalf("%s: %v", c.name, err)
		}
		snaps[i] = snap
	}
	return snaps
}

// TestCheckpointTornStateSweep cuts every node, Net and Obs blob of every
// compat fixture at every byte and resumes from the result: the node-state
// decoders must refuse each cut with an error — no panic, and no run that
// resumes. The container sweep above never reaches them: Load parses node
// states only as opaque blobs.
func TestCheckpointTornStateSweep(t *testing.T) {
	cases := compatCases()
	cuts := 0
	for i, snap := range loadCompat(t, cases) {
		c := cases[i]
		for bi, b := range stateBlobs(snap) {
			whole := *b
			for cut := 0; cut < len(whole); cut++ {
				*b = whole[:cut]
				if _, _, err := c.exec(&congest.CheckpointPolicy{Resume: snap}, congest.SchedulerActive); err == nil {
					t.Fatalf("%s: blob %d cut at byte %d of %d resumed silently", c.name, bi, cut, len(whole))
				}
				cuts++
			}
			*b = whole
		}
	}
	t.Logf("%d cuts refused", cuts)
}

// FuzzResumeState replaces one node, Net or Obs blob of a compat fixture
// with arbitrary bytes and resumes for at most one round (the policy stops
// at the next barrier). Whatever the bytes, the engine must refuse them
// with an error or run that round — never panic. fix picks the fixture
// (fix mod the case count) and the scheduler (active, or dense when the
// quotient is odd): a snapshot holds no scheduler state, so either may
// resume it. The core and bellman fixtures are seeded under both.
func FuzzResumeState(f *testing.F) {
	cases := compatCases()
	snaps := loadCompat(f, cases)
	for i, snap := range snaps {
		for bi, b := range stateBlobs(snap) {
			f.Add(uint8(i), uint16(bi), *b)
		}
	}
	for i, c := range cases {
		if c.alg != "core" && c.alg != "bellman" {
			continue
		}
		for bi, b := range stateBlobs(snaps[i]) {
			f.Add(uint8(len(cases)+i), uint16(bi), *b)
		}
	}
	f.Fuzz(func(t *testing.T, fix uint8, blob uint16, data []byte) {
		i := int(fix) % len(cases)
		sched := congest.SchedulerActive
		if int(fix)/len(cases)%2 == 1 {
			sched = congest.SchedulerDense
		}
		snap := *snaps[i]
		snap.Nodes = append([][]byte(nil), snap.Nodes...)
		bs := stateBlobs(&snap)
		*bs[int(blob)%len(bs)] = data
		// Refused, stopped at the next barrier or finished: all fine.
		cases[i].exec(&congest.CheckpointPolicy{
			Resume: &snap, Run: snap.RunIdx, AtRound: snap.Round + 1, Stop: true,
			Sink: func(*congest.Snapshot) error { return nil },
		}, sched)
	})
}
