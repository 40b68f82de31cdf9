package oracle

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/compute"
	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph"
)

// A snapshot file is a sealed container (checkpoint.WriteSealed, the
// format engine checkpoints are in too) with magic "APSPSNAP":
//
//	meta     JSON     snapMeta (alg, n, k, sources, fingerprint, columns)
//	body     dist     k·n i64
//	         hops     k·n i32  (present iff meta.HasHops)
//	         parent   k·n i32  (present iff meta.HasPaths)
//
// The three columns are the store's memory image: SaveSnapshot hands the
// compute.Matrix slices to the container as they lie in memory, and
// LoadSnapshot hands the read buffer's column ranges, 8-aligned by the
// container, to Build as the columns, with no per-cell encode or decode
// either way. That makes the format little-endian only; a big-endian host
// refuses every snapshot with ErrBigEndianHost. A version 1 file (no
// padding, an FNV-64a checksum) from an older build is refused by its
// version as corrupt, and RecoverDir quarantines it.
const (
	snapMagic  = "APSPSNAP"
	snapSuffix = ".snap"
	// QuarantineSuffix is appended to unreadable snapshot files by
	// RecoverDir so they never shadow an older valid generation again.
	QuarantineSuffix = ".corrupt"
)

// ErrCorruptSnapshot is wrapped by every load failure caused by the file
// contents (bad magic, truncation, checksum mismatch, malformed meta) —
// as opposed to I/O errors or graph mismatches.
var ErrCorruptSnapshot = errors.New("oracle: corrupt snapshot")

// ErrSnapshotMismatch is wrapped when a structurally valid snapshot was
// built against a different graph than the one it is being loaded for.
var ErrSnapshotMismatch = errors.New("oracle: snapshot/graph mismatch")

// ErrBigEndianHost is returned by SaveSnapshot, LoadSnapshot and
// RecoverDir on a big-endian host: snapshot columns are little-endian
// memory images, which such a host can neither write nor adopt.
var ErrBigEndianHost = errors.New("oracle: snapshot files are little-endian, this host is big-endian")

// bigEndianHost reports whether this host stores integers big-endian.
var bigEndianHost = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// snapMeta is the JSON header of a persisted snapshot.
type snapMeta struct {
	Alg         string            `json:"alg"`
	N           int               `json:"n"`
	K           int               `json:"k"`
	Sources     []int             `json:"sources"`
	Fingerprint uint64            `json:"fingerprint"`
	HasHops     bool              `json:"has_hops"`
	HasPaths    bool              `json:"has_paths"`
	Stats       congest.Stats     `json:"stats"`
	Phys        *faults.PhysStats `json:"phys,omitempty"`
}

// SaveSnapshot writes snap to path atomically: a temp file in the same
// directory is written, fsynced, renamed into place, and the parent
// directory is fsynced — after a crash at any instant, path either holds
// the complete new snapshot or whatever was there before, never a tear.
func SaveSnapshot(path string, snap *Snapshot) error {
	if bigEndianHost {
		return ErrBigEndianHost
	}
	m := snap.m
	mj, err := json.Marshal(snapMeta{
		Alg: snap.alg, N: m.N, K: len(m.Sources), Sources: m.Sources,
		Fingerprint: snap.fp, HasHops: m.Hops != nil, HasPaths: m.Parent != nil,
		Stats: snap.stats, Phys: snap.phys,
	})
	if err != nil {
		return fmt.Errorf("oracle: encoding snapshot meta: %w", err)
	}
	// An absent column is empty and writes nothing.
	_, err = checkpoint.WriteSealed(path, snapMagic, mj, recast[byte](m.Dist), recast[byte](m.Hops), recast[byte](m.Parent))
	if err != nil {
		return fmt.Errorf("oracle: saving snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads, checksums, and revalidates a persisted snapshot
// against g. expectFP, when non-zero, must match the stored graph
// fingerprint (ErrSnapshotMismatch otherwise). Every structural defect —
// truncation at any byte, flipped bits, malformed meta — returns an error
// wrapping ErrCorruptSnapshot; a load never yields a partially-filled or
// silently wrong snapshot.
func LoadSnapshot(path string, g *graph.Graph, expectFP uint64) (*Snapshot, error) {
	if bigEndianHost {
		return nil, ErrBigEndianHost
	}
	mj, cols, err := checkpoint.ReadSealed(path, snapMagic)
	if errors.Is(err, checkpoint.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	if err != nil {
		return nil, fmt.Errorf("oracle: reading snapshot: %w", err)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrCorruptSnapshot, path, fmt.Sprintf(format, args...))
	}
	var meta snapMeta
	if err := json.Unmarshal(mj, &meta); err != nil {
		return nil, corrupt("bad meta JSON: %v", err)
	}
	if meta.N <= 0 || meta.K <= 0 || len(meta.Sources) != meta.K {
		return nil, corrupt("meta n=%d k=%d sources=%d inconsistent", meta.N, meta.K, len(meta.Sources))
	}
	if meta.N != g.N() {
		return nil, fmt.Errorf("%w: snapshot has n=%d, graph has n=%d", ErrSnapshotMismatch, meta.N, g.N())
	}
	if expectFP != 0 && meta.Fingerprint != expectFP {
		return nil, fmt.Errorf("%w: snapshot fingerprint %016x, graph %016x", ErrSnapshotMismatch, meta.Fingerprint, expectFP)
	}

	cells := meta.K * meta.N
	want := cells * 8
	if meta.HasHops {
		want += cells * 4
	}
	if meta.HasPaths {
		want += cells * 4
	}
	if len(cols) != want {
		return nil, corrupt("column bytes %d, want %d", len(cols), want)
	}

	in := BuildInput{Alg: meta.Alg, Stats: meta.Stats, Phys: meta.Phys,
		Matrix: compute.Matrix{Sources: meta.Sources, N: meta.N, Dist: recast[int64](cols[:cells*8])}}
	cols = cols[cells*8:]
	if meta.HasHops {
		in.Hops = recast[int32](cols[:cells*4])
		cols = cols[cells*4:]
	}
	if meta.HasPaths {
		in.Parent = recast[int32](cols)
	}
	snap, err := Build(g, in, BuildOpts{Fingerprint: meta.Fingerprint})
	if err != nil {
		// Build's range checks catching anything here means the checksum
		// passed but the content is impossible — still a corrupt file.
		return nil, corrupt("revalidation failed: %v", err)
	}
	return snap, nil
}

// recast views s's memory as a slice of To, in whichever direction: a
// column as the bytes a save writes, or the bytes a load read as a
// column. It is the snapshot's one reinterpretation of memory; the caller
// supplies whole cells, aligned for To.
func recast[To, From byte | int32 | int64](s []From) []To {
	if len(s) == 0 {
		return nil
	}
	var from From
	var to To
	return unsafe.Slice((*To)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(from))/int(unsafe.Sizeof(to)))
}

// SaveToDir saves snap under dir with a name that sorts newest-first by
// creation order, and returns the path.
func SaveToDir(dir string, snap *Snapshot) (string, error) {
	name := fmt.Sprintf("snap-%020d-g%d%s", time.Now().UnixNano(), snap.Gen(), snapSuffix)
	path := filepath.Join(dir, name)
	if err := SaveSnapshot(path, snap); err != nil {
		return "", err
	}
	return path, nil
}

// Autosave is the AfterPublish hook of a server that keeps its snapshots
// in dir: every published generation is saved atomically and dir is
// pruned to the keep newest. Failures degrade durability, never serving:
// they are logged on log and the next publish tries again.
func Autosave(dir string, keep int, log *slog.Logger) func(*Snapshot) {
	return func(snap *Snapshot) {
		path, err := SaveToDir(dir, snap)
		if err != nil {
			log.Error("autosave failed", "err", err, "gen", snap.Gen())
			return
		}
		if err := Prune(dir, keep); err != nil {
			log.Warn("autosave prune", "err", err)
		}
		log.Info("autosaved snapshot", "path", path, "gen", snap.Gen())
	}
}

// listSnapshots returns dir's snapshot files, newest first (by modtime,
// then name).
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type cand struct {
		path string
		mod  time.Time
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		cands = append(cands, cand{filepath.Join(dir, e.Name()), info.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].mod.Equal(cands[j].mod) {
			return cands[i].mod.After(cands[j].mod)
		}
		return cands[i].path > cands[j].path
	})
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths, nil
}

// RecoverDir finds the newest loadable snapshot in dir. Corrupt files are
// quarantined (renamed with QuarantineSuffix) and skipped — a torn
// autosave from a crash mid-write must never shadow the older valid
// generation behind it. Graph-mismatched files are skipped but left in
// place (they are valid, just for a different input). Returns (nil, "",
// nil) when dir holds no usable snapshot — a cold boot, not an error.
func RecoverDir(dir string, g *graph.Graph, expectFP uint64, log *slog.Logger) (*Snapshot, string, error) {
	if bigEndianHost {
		// Before the listing: every file would fail to load, and a valid
		// snapshot must never be quarantined for the host's byte order.
		return nil, "", ErrBigEndianHost
	}
	paths, err := listSnapshots(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", fmt.Errorf("oracle: scanning snapshot dir: %w", err)
	}
	for _, path := range paths {
		snap, err := LoadSnapshot(path, g, expectFP)
		if err == nil {
			return snap, path, nil
		}
		if errors.Is(err, ErrSnapshotMismatch) {
			if log != nil {
				log.Warn("skipping snapshot for different graph", slog.String("path", path), slog.Any("err", err))
			}
			continue
		}
		// Corrupt or unreadable: quarantine so the next boot does not
		// retry it, and fall through to the next-newest candidate.
		qpath := path + QuarantineSuffix
		if rerr := os.Rename(path, qpath); rerr != nil {
			qpath = path + " (quarantine failed)"
		}
		if log != nil {
			log.Warn("quarantined corrupt snapshot",
				slog.String("path", path), slog.String("quarantine", qpath), slog.Any("err", err))
		}
	}
	return nil, "", nil
}

// Prune deletes all but the keep newest snapshot files in dir (keep <= 0
// keeps everything). Quarantined files are never pruned — they are
// evidence.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	paths, err := listSnapshots(dir)
	if err != nil {
		return fmt.Errorf("oracle: scanning snapshot dir: %w", err)
	}
	var firstErr error
	for _, path := range paths[min(keep, len(paths)):] {
		if err := os.Remove(path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
