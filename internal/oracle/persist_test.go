package oracle

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/graph"
)

// saveLoadPair builds a snapshot, saves it, and loads it back.
func saveLoadPair(t testing.TB, in BuildInput, g *graph.Graph, fp uint64) (*Snapshot, *Snapshot, string) {
	t.Helper()
	snap, err := Build(g, in, BuildOpts{Fingerprint: fp})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	(&Store{}).Publish(snap)
	path := filepath.Join(t.TempDir(), "a.snap")
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	got, err := LoadSnapshot(path, g, fp)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	return snap, got, path
}

func assertSameAnswers(t testing.TB, want, got *Snapshot) {
	t.Helper()
	if got.Alg() != want.Alg() || got.N() != want.N() || got.K() != want.K() ||
		got.Fingerprint() != want.Fingerprint() ||
		got.HasPaths() != want.HasPaths() || got.HasHops() != want.HasHops() {
		t.Fatalf("identity mismatch: got %s n=%d k=%d fp=%x paths=%v hops=%v",
			got.Alg(), got.N(), got.K(), got.Fingerprint(), got.HasPaths(), got.HasHops())
	}
	for row := 0; row < want.K(); row++ {
		for v := 0; v < want.N(); v++ {
			if got.DistAt(row, v) != want.DistAt(row, v) {
				t.Fatalf("dist(%d,%d) = %d, want %d", row, v, got.DistAt(row, v), want.DistAt(row, v))
			}
			if !want.HasPaths() {
				continue
			}
			wp, werr := want.Path(row, v)
			gp, gerr := got.Path(row, v)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("path(%d,%d) errors diverge: %v vs %v", row, v, werr, gerr)
			}
			if len(wp) != len(gp) {
				t.Fatalf("path(%d,%d) lengths diverge: %d vs %d", row, v, len(wp), len(gp))
			}
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("path(%d,%d)[%d] = %d, want %d", row, v, i, gp[i], wp[i])
				}
			}
		}
	}
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	g, _, in := testInput(t, 24, 72, 11, []int{0, 3, 7, 11, 23})
	want, got, _ := saveLoadPair(t, in, g, 0xfeedbeef)
	assertSameAnswers(t, want, got)
	if got.Stats().Rounds != want.Stats().Rounds {
		t.Fatalf("stats dropped: rounds %d vs %d", got.Stats().Rounds, want.Stats().Rounds)
	}
}

func TestSnapshotSaveLoadDistOnly(t *testing.T) {
	g, _, in := testInput(t, 16, 48, 5, []int{0, 5, 9})
	in.Hops, in.Parent = nil, nil
	want, got, _ := saveLoadPair(t, in, g, 0)
	if got.HasPaths() || got.HasHops() {
		t.Fatal("dist-only snapshot grew columns in transit")
	}
	assertSameAnswers(t, want, got)
}

// sweepFile is a snapshot file's bytes and the graph it loads against.
type sweepFile struct {
	whole []byte
	g     *graph.Graph
}

// sweepFiles are the files the corruption sweeps cut and flip: a fresh
// save, and the pinned fixture with hops and parents.
func sweepFiles(t *testing.T) map[string]sweepFile {
	g, _, in := testInput(t, 8, 24, 3, []int{0, 5})
	_, _, path := saveLoadPair(t, in, g, 7)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sweepFile{"saved": {saved, g}, "oracle-v2.snap": {compatFile(t, "oracle-v2.snap"), compatGraph()}}
}

// TestSnapshotTornWriteSweep truncates the file at EVERY byte boundary
// and requires each load to fail loudly with ErrCorruptSnapshot — a torn
// write (crash mid-save without the rename discipline) must never parse
// as a shorter-but-plausible snapshot.
func TestSnapshotTornWriteSweep(t *testing.T) {
	for name, f := range sweepFiles(t) {
		torn := filepath.Join(t.TempDir(), "torn.snap")
		for cut := 0; cut < len(f.whole); cut++ {
			if err := os.WriteFile(torn, f.whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, lerr := LoadSnapshot(torn, f.g, 0); !errors.Is(lerr, ErrCorruptSnapshot) {
				t.Fatalf("%s: truncation at byte %d of %d: err = %v, want ErrCorruptSnapshot", name, cut, len(f.whole), lerr)
			}
		}
	}
}

func TestSnapshotBitFlipSweep(t *testing.T) {
	for name, f := range sweepFiles(t) {
		flipped := filepath.Join(t.TempDir(), "flip.snap")
		// Flip one bit in every 7th byte (a full per-bit sweep is slow and
		// adds nothing: the checksum catches any single flip the same way).
		for off := 0; off < len(f.whole); off += 7 {
			mut := append([]byte(nil), f.whole...)
			mut[off] ^= 1 << (off % 8)
			if err := os.WriteFile(flipped, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, lerr := LoadSnapshot(flipped, f.g, 0); !errors.Is(lerr, ErrCorruptSnapshot) {
				t.Fatalf("%s: bit flip at byte %d: err = %v, want ErrCorruptSnapshot", name, off, lerr)
			}
		}
	}
}

// seal replaces data's trailing checksum with the CRC-32C of the bytes
// before it.
func seal(data []byte) []byte {
	body := data[:len(data)-8]
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), uint64(sum))
}

// withVersion returns a copy of raw with its container version word set
// to version and its checksum left as it was.
func withVersion(raw []byte, version uint32) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[8:], version)
	return out
}

// FuzzLoadSnapshot feeds arbitrary bytes to the reader that runs at boot
// over whatever the disk kept. Seeds: a saved snapshot with hops and
// parents and a distance-only one, and of each a truncation, a bit flip,
// the version 1 header of older builds, a checkpoint's magic, and a body
// four bytes short. The bytes as given must either be refused with a typed
// error or answer exactly like the snapshot that was saved. The same bytes
// resealed get past the checksum into the meta and column parsing, where a
// different-but-valid snapshot is legitimate: there the property is a
// typed error or a snapshot every cell of which can be read and walked
// without a panic.
func FuzzLoadSnapshot(f *testing.F) {
	g, _, in := testInput(f, 8, 24, 3, []int{0, 5})
	full, _, fullPath := saveLoadPair(f, in, g, 7)
	in.Hops, in.Parent = nil, nil
	distOnly, _, distPath := saveLoadPair(f, in, g, 7)
	for _, p := range []string{fullPath, distPath} {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		flip := append([]byte(nil), raw...)
		flip[len(flip)/3] ^= 0x10
		kind := append([]byte(checkpoint.Magic), raw[len(checkpoint.Magic):]...)
		short := append(append([]byte(nil), raw[:len(raw)-12]...), raw[len(raw)-8:]...)
		for _, seed := range [][]byte{raw, raw[:len(raw)/2], flip, withVersion(raw, 1), kind, short} {
			f.Add(seed)
		}
	}
	path := filepath.Join(f.TempDir(), "fuzz.snap")
	load := func(t *testing.T, data []byte) *Snapshot {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadSnapshot(path, g, 7)
		if err != nil && !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("untyped load error: %v", err)
		}
		return snap
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got := load(t, data); got != nil {
			want := distOnly
			if got.HasPaths() {
				want = full
			}
			assertSameAnswers(t, want, got)
		}
		if len(data) < 8 {
			return
		}
		if got := load(t, seal(data)); got != nil {
			for row := 0; row < got.K(); row++ {
				for v := 0; v < got.N(); v++ {
					_ = got.DistAt(row, v)
					_, _ = got.Path(row, v)
				}
			}
		}
	})
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	g, _, in := testInput(t, 16, 48, 5, []int{0, 5})
	_, _, path := saveLoadPair(t, in, g, 42)
	if _, err := LoadSnapshot(path, g, 43); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("fingerprint mismatch err = %v, want ErrSnapshotMismatch", err)
	}
	// Wrong graph size is a mismatch too, not corruption.
	g2 := graph.Random(10, 20, graph.GenOpts{MaxW: 8, Seed: 9, Directed: true})
	if _, err := LoadSnapshot(path, g2, 0); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("graph-size mismatch err = %v, want ErrSnapshotMismatch", err)
	}
}

func TestRecoverDirQuarantinesCorrupt(t *testing.T) {
	g, _, in := testInput(t, 16, 48, 5, []int{0, 5, 9})
	snap, err := Build(g, in, BuildOpts{Fingerprint: 1})
	if err != nil {
		t.Fatal(err)
	}
	(&Store{}).Publish(snap)
	dir := t.TempDir()
	older, err := SaveToDir(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	newer, err := SaveToDir(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest file: recovery must quarantine it and fall back to
	// the older valid generation.
	whole, _ := os.ReadFile(newer)
	if err := os.WriteFile(newer, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	got, path, err := RecoverDir(dir, g, 1, log)
	if err != nil {
		t.Fatalf("RecoverDir: %v", err)
	}
	if got == nil || path != older {
		t.Fatalf("recovered %q, want fallback to %q", path, older)
	}
	assertSameAnswers(t, snap, got)
	if _, err := os.Stat(newer + QuarantineSuffix); err != nil {
		t.Fatalf("torn file not quarantined: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() == filepath.Base(newer) {
			t.Fatal("torn file still present under its snapshot name")
		}
	}
}

func TestRecoverDirColdBoot(t *testing.T) {
	g, _, _ := testInput(t, 8, 24, 3, []int{0})
	if snap, path, err := RecoverDir(t.TempDir(), g, 0, nil); snap != nil || path != "" || err != nil {
		t.Fatalf("empty dir: got (%v, %q, %v), want cold boot", snap, path, err)
	}
	if snap, path, err := RecoverDir(filepath.Join(t.TempDir(), "missing"), g, 0, nil); snap != nil || path != "" || err != nil {
		t.Fatalf("missing dir: got (%v, %q, %v), want cold boot", snap, path, err)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	g, _, in := testInput(t, 8, 24, 3, []int{0, 5})
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 5; i++ {
		p, err := SaveToDir(dir, snap)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// A quarantined file must survive pruning.
	evidence := filepath.Join(dir, "old.snap"+QuarantineSuffix)
	if err := os.WriteFile(evidence, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	left, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("%d snapshots left, want 2: %v", len(left), left)
	}
	for _, p := range left {
		if p != paths[3] && p != paths[4] {
			t.Fatalf("pruning kept %q, want the two newest of %v", p, paths)
		}
	}
	if _, err := os.Stat(evidence); err != nil {
		t.Fatalf("quarantined file pruned: %v", err)
	}
	if err := Prune(dir, 0); err != nil {
		t.Fatalf("Prune(keep=0): %v", err)
	}
	if left, _ = listSnapshots(dir); len(left) != 2 {
		t.Fatal("Prune(keep<=0) must be a no-op")
	}
}

// TestAutosaveHook drives the daemon's AfterPublish hook: a save that
// cannot land is logged and leaves the published generation serving, and
// a working dir keeps only the newest generations.
func TestAutosaveHook(t *testing.T) {
	g, _, in := testInput(t, 8, 24, 3, []int{0, 5})
	var logged bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logged, nil))
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := &Server{Store: &Store{}, AfterPublish: Autosave(filepath.Join(blocker, "dir"), 2, log)}
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if gen := srv.Publish(snap); gen != 1 {
		t.Fatalf("Publish = gen %d, want 1", gen)
	}
	if !strings.Contains(logged.String(), "autosave failed") {
		t.Fatalf("failed save not logged: %q", logged.String())
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dist?src=5&dst=1", nil))
	if rec.Code != http.StatusOK || rec.Header().Get(GenHeader) != "1" {
		t.Fatalf("after a failed save /dist answered %d at gen %q, want 200 at gen 1", rec.Code, rec.Header().Get(GenHeader))
	}

	dir := t.TempDir()
	srv.AfterPublish = Autosave(dir, 2, log)
	for i := 0; i < 3; i++ {
		snap, err := Build(g, in, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Publish(snap)
	}
	left, err := listSnapshots(dir)
	if err != nil || len(left) != 2 || !strings.HasSuffix(left[0], "-g4.snap") {
		t.Fatalf("autosave dir holds %v (%v), want the 2 newest ending at gen 4", left, err)
	}
}

func TestSaveSnapshotLeavesNoTempDebris(t *testing.T) {
	g, _, in := testInput(t, 8, 24, 3, []int{0})
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveSnapshot(filepath.Join(dir, "a.snap"), snap); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
}

// compatGraph is the graph the testdata/compat/oracle-v2*.snap fixtures
// were computed on.
func compatGraph() *graph.Graph {
	return graph.Random(24, 80, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 28, Directed: true})
}

// compatFile returns the bytes of a fixture under testdata/compat.
func compatFile(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// compatSpecs are the computations behind the fixtures, keyed by the
// fixture name: oracle-v2.snap (parallel backend, hops and parents) and
// oracle-v2-blocker.snap (distance only).
var compatSpecs = map[string]ComputeSpec{
	"oracle-v2.snap":         {Alg: "pipeline", Backend: "parallel", Sources: []int{0, 5, 11, 17, 23}},
	"oracle-v2-blocker.snap": {Alg: "blocker", Sources: []int{0, 5, 11, 17, 23}, H: 3},
}

// TestSnapshotFormatCompat holds the file format and the answers to the
// fixtures in testdata/compat, the first files written verbatim from the
// kernels' columns. Every fixture must load and answer every cell as a
// fresh computation of the same spec does, and saving the loaded snapshot
// or the fresh one must give the fixture byte for byte.
func TestSnapshotFormatCompat(t *testing.T) {
	g := compatGraph()
	fp := checkpoint.Fingerprint(g)
	for file, sp := range compatSpecs {
		in, err := Compute(context.Background(), g, sp)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		fresh, err := Build(g, in, BuildOpts{Fingerprint: fp})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		pinned := compatFile(t, file)
		loaded, err := LoadSnapshot(filepath.Join("..", "..", "testdata", "compat", file), g, fp)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if loaded.Alg() != fresh.Alg() || loaded.Stats() != fresh.Stats() ||
			loaded.HasHops() != fresh.HasHops() || loaded.HasPaths() != fresh.HasPaths() ||
			!slices.Equal(loaded.Sources(), fresh.Sources()) {
			t.Fatalf("%s: identity %s %+v hops=%v paths=%v, fresh %s %+v hops=%v paths=%v", file,
				loaded.Alg(), loaded.Stats(), loaded.HasHops(), loaded.HasPaths(),
				fresh.Alg(), fresh.Stats(), fresh.HasHops(), fresh.HasPaths())
		}
		for row := 0; row < fresh.K(); row++ {
			for v := 0; v < fresh.N(); v++ {
				if loaded.DistAt(row, v) != fresh.DistAt(row, v) ||
					fresh.HasHops() && loaded.hopAt(row, v) != fresh.hopAt(row, v) ||
					fresh.HasPaths() && loaded.parentAt(row, v) != fresh.parentAt(row, v) {
					t.Fatalf("%s: cell (%d,%d) differs from a fresh computation", file, row, v)
				}
			}
		}
		for name, snap := range map[string]*Snapshot{"fresh": fresh, "loaded": loaded} {
			out := filepath.Join(t.TempDir(), "out.snap")
			if err := SaveSnapshot(out, snap); err != nil {
				t.Fatal(err)
			}
			if again, _ := os.ReadFile(out); !bytes.Equal(again, pinned) {
				t.Errorf("%s: the %s snapshot saves %d bytes that differ from the fixture's %d", file, name, len(again), len(pinned))
			}
		}
	}
}

// TestRecoverDirMixedVersions is the one-way upgrade: an autosave dir
// that holds a version 1 file from an older build and a newer version 2
// save. Recovery serves the newer file; once it is gone, the version 1
// file is refused by its version, quarantined, and the boot is cold.
func TestRecoverDirMixedVersions(t *testing.T) {
	g := compatGraph()
	fp := checkpoint.Fingerprint(g)
	dir := t.TempDir()
	old := filepath.Join(dir, "snap-00000000000000000001-g1.snap")
	if err := os.WriteFile(old, withVersion(compatFile(t, "oracle-v2.snap"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(old, hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}
	in, err := Compute(context.Background(), g, compatSpecs["oracle-v2.snap"])
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(g, in, BuildOpts{Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	(&Store{}).Publish(fresh)
	newer, err := SaveToDir(dir, fresh)
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logged, nil))
	got, path, err := RecoverDir(dir, g, fp, log)
	if err != nil || got == nil || path != newer {
		t.Fatalf("RecoverDir = (%v, %q, %v), want %q", got != nil, path, err, newer)
	}
	assertSameAnswers(t, fresh, got)
	if q, _ := filepath.Glob(filepath.Join(dir, "*"+QuarantineSuffix)); len(q) != 0 {
		t.Fatalf("quarantined %v while a newer save was served", q)
	}
	if err := os.Remove(newer); err != nil {
		t.Fatal(err)
	}
	if got, path, err := RecoverDir(dir, g, fp, log); got != nil || path != "" || err != nil {
		t.Fatalf("RecoverDir over a version 1 file = (%v, %q, %v), want a cold boot", got != nil, path, err)
	}
	if _, err := os.Stat(old + QuarantineSuffix); err != nil {
		t.Fatalf("version 1 file not quarantined: %v", err)
	}
	if !strings.Contains(logged.String(), "unsupported version 1") {
		t.Fatalf("quarantine log does not name the version:\n%s", logged.String())
	}
}

// TestBigEndianHostRefuses takes the branch a big-endian host runs: every
// entry point refuses by name, and recovery leaves a valid file in place
// instead of quarantining it.
func TestBigEndianHostRefuses(t *testing.T) {
	g, _, in := testInput(t, 8, 24, 3, []int{0, 5})
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := SaveToDir(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	bigEndianHost = true
	defer func() { bigEndianHost = false }()
	if err := SaveSnapshot(filepath.Join(dir, "b.snap"), snap); !errors.Is(err, ErrBigEndianHost) {
		t.Fatalf("SaveSnapshot err = %v, want ErrBigEndianHost", err)
	}
	if _, err := LoadSnapshot(path, g, 0); !errors.Is(err, ErrBigEndianHost) {
		t.Fatalf("LoadSnapshot err = %v, want ErrBigEndianHost", err)
	}
	if got, _, err := RecoverDir(dir, g, 0, nil); got != nil || !errors.Is(err, ErrBigEndianHost) {
		t.Fatalf("RecoverDir = (%v, %v), want ErrBigEndianHost", got != nil, err)
	}
	if left, err := listSnapshots(dir); err != nil || len(left) != 1 || left[0] != path {
		t.Fatalf("dir holds %v (%v) after a refused recovery, want only %s", left, err, path)
	}
}
