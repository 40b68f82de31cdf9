// Package checkpoint persists engine snapshots (congest.Snapshot) to disk
// and supervises crash-restart loops.
//
// A checkpoint file is a versioned container: magic, a JSON metadata
// header identifying the computation (algorithm, graph fingerprint,
// sources, fault plan, scheduler, disarmed crash events), and the binary
// snapshot. Load validates the container; matching the metadata against
// the computation being resumed is the caller's job (ValidateAgainst
// covers the common checks). Save writes atomically (temp file + rename)
// so a crash mid-write never corrupts the previous checkpoint.
//
// Supervise implements the crash-restart loop: run the computation, and
// when it dies with a recoverable crash (congest.CrashError with
// Restart > 0), re-arm the policy with the latest snapshot and run it
// again — the re-executed prefix is deterministic, the restored suffix is
// bit-exact, so the supervised result equals the fault-free one.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
)

// Magic identifies a checkpoint file.
const Magic = "APSPCKPT"

// FileVersion guards the container layout (the snapshot payload is
// versioned separately by congest.SnapshotVersion).
const FileVersion = 1

// Meta identifies the computation a snapshot belongs to. All fields are
// informative except the ones ValidateAgainst checks.
type Meta struct {
	// Alg names the algorithm ("core", "hssp", ...; cmd/apsprun's -alg).
	Alg string `json:"alg,omitempty"`
	// N, M and Graph (an FNV-1a fingerprint of the encoded graph) pin the
	// input instance.
	N     int    `json:"n"`
	M     int    `json:"m"`
	Graph uint64 `json:"graph"`
	// Sources and H pin the query.
	Sources []int `json:"sources,omitempty"`
	H       int   `json:"h,omitempty"`
	// Plan is the fault plan in canonical string form ("" = none).
	Plan string `json:"plan,omitempty"`
	// Sched is the scheduler the snapshot was taken under.
	Sched congest.Scheduler `json:"sched"`
	// Workers is informative only (worker count never affects results).
	Workers int `json:"workers,omitempty"`
	// Disarmed lists the script indices of crash events that already
	// fired (faults.Network.DisarmedCrashes): a resuming process must
	// disarm them again or the same crash re-fires on the resumed run.
	Disarmed []int `json:"disarmed,omitempty"`
}

// Fingerprint hashes the graph's canonical encoding (FNV-1a 64).
func Fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	if err := graph.Encode(h, g); err != nil {
		return 0 // encode to a hash cannot fail; belt and braces
	}
	return h.Sum64()
}

// ValidateAgainst checks the metadata against the computation about to
// resume: same graph, same sources, same hop parameter, same fault plan,
// same scheduler.
func (m *Meta) ValidateAgainst(g *graph.Graph, sources []int, h int, plan string, sched congest.Scheduler) error {
	if m.N != g.N() || m.M != g.M() || m.Graph != Fingerprint(g) {
		return fmt.Errorf("checkpoint: graph mismatch (snapshot n=%d m=%d fp=%x)", m.N, m.M, m.Graph)
	}
	if len(m.Sources) != len(sources) {
		return fmt.Errorf("checkpoint: source count mismatch (snapshot %d, run %d)", len(m.Sources), len(sources))
	}
	for i, s := range m.Sources {
		if s != sources[i] {
			return fmt.Errorf("checkpoint: source %d mismatch (snapshot %d, run %d)", i, s, sources[i])
		}
	}
	if m.H != h {
		return fmt.Errorf("checkpoint: hop parameter mismatch (snapshot %d, run %d)", m.H, h)
	}
	if m.Plan != plan {
		return fmt.Errorf("checkpoint: fault plan mismatch (snapshot %q, run %q)", m.Plan, plan)
	}
	if m.Sched != sched {
		return fmt.Errorf("checkpoint: scheduler mismatch (snapshot %d, run %d)", m.Sched, sched)
	}
	return nil
}

// Save writes the checkpoint atomically: to a temp file in path's
// directory, synced, then renamed over path.
func Save(path string, meta *Meta, snap *congest.Snapshot) error {
	_, err := save(path, meta, snap)
	return err
}

// save is Save, reporting the container size (header + meta + body) so the
// Keeper's OnSave hook can account bytes without re-marshalling.
func save(path string, meta *Meta, snap *congest.Snapshot) (int64, error) {
	body, err := snap.MarshalBinary()
	if err != nil {
		return 0, fmt.Errorf("checkpoint: marshal snapshot: %w", err)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: marshal meta: %w", err)
	}
	hdr := make([]byte, 0, len(Magic)+8+len(mb)+8)
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, FileVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(mb)))
	hdr = append(hdr, mb...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(body)))
	err = WriteAtomic(path, func(f *os.File) error {
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		_, err := f.Write(body)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	return int64(len(hdr) + len(body)), nil
}

// Load reads and validates a checkpoint file.
func Load(path string) (*Meta, *congest.Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	r := raw
	// Lengths come from the file: compare them unsigned against the bytes
	// that remain, so a corrupt field can neither go negative nor overrun.
	take := func(n uint64) ([]byte, error) {
		if uint64(len(r)) < n {
			return nil, fmt.Errorf("checkpoint: %s: truncated file", path)
		}
		b := r[:n]
		r = r[n:]
		return b, nil
	}
	magic, err := take(uint64(len(Magic)))
	if err != nil {
		return nil, nil, err
	}
	if string(magic) != Magic {
		return nil, nil, fmt.Errorf("checkpoint: %s is not a checkpoint file", path)
	}
	hdr, err := take(8)
	if err != nil {
		return nil, nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[:4]); v != FileVersion {
		return nil, nil, fmt.Errorf("checkpoint: %s: unsupported file version %d (want %d)", path, v, FileVersion)
	}
	mb, err := take(uint64(binary.LittleEndian.Uint32(hdr[4:])))
	if err != nil {
		return nil, nil, err
	}
	meta := &Meta{}
	if err := json.Unmarshal(mb, meta); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %s: bad metadata: %w", path, err)
	}
	lb, err := take(8)
	if err != nil {
		return nil, nil, err
	}
	body, err := take(binary.LittleEndian.Uint64(lb))
	if err != nil {
		return nil, nil, err
	}
	if len(r) != 0 {
		return nil, nil, fmt.Errorf("checkpoint: %s: %d trailing bytes", path, len(r))
	}
	snap := &congest.Snapshot{}
	if err := snap.UnmarshalBinary(body); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return meta, snap, nil
}

// Keeper is a checkpoint sink that retains the latest snapshot in memory
// and optionally persists each one to Path. Its Sink method is what a
// CheckpointPolicy wants.
type Keeper struct {
	// Path, if non-empty, is where every snapshot is saved (atomically,
	// each overwriting the last).
	Path string
	// Meta is stored alongside when Path is set. The MetaFn hook, if set,
	// refreshes it before each save (e.g. to capture newly disarmed
	// crash events).
	Meta   *Meta
	MetaFn func(*Meta)
	// OnSave, if set, receives every persisted snapshot's wall-clock save
	// duration and container byte size (obs.Recorder.CheckpointSave has
	// the matching shape, which is how checkpoint costs reach the trace
	// stream and the metrics dump).
	OnSave func(d time.Duration, bytes int64)

	latest *congest.Snapshot
	saves  int
}

// Sink implements congest.CheckpointPolicy.Sink.
func (k *Keeper) Sink(s *congest.Snapshot) error {
	k.latest = s
	k.saves++
	if k.Path == "" {
		return nil
	}
	meta := k.Meta
	if meta == nil {
		meta = &Meta{N: s.N, Sched: s.Sched}
	}
	if k.MetaFn != nil {
		k.MetaFn(meta)
	}
	start := time.Now()
	n, err := save(k.Path, meta, s)
	if err == nil && k.OnSave != nil {
		k.OnSave(time.Since(start), n)
	}
	return err
}

// Latest returns the most recent snapshot (nil if none yet) and how many
// have been delivered.
func (k *Keeper) Latest() (*congest.Snapshot, int) { return k.latest, k.saves }

// Supervise runs fn under the policy, restarting after recoverable
// crashes. fn must be a closure that re-executes the whole computation
// under pol (sharing the faults.Network across attempts, or disarming
// fired crash events via Meta.Disarmed, so a handled crash does not
// re-fire). attempts bounds the number of restarts; an unrecoverable
// crash (Restart == 0), a non-crash error, or exhaustion of the budget is
// returned as-is. Returns the number of restarts performed.
func Supervise(pol *congest.CheckpointPolicy, keeper *Keeper, attempts int, fn func() error) (int, error) {
	restarts := 0
	for {
		err := fn()
		var ce *congest.CrashError
		if err == nil || !errors.As(err, &ce) {
			return restarts, err
		}
		if ce.Restart <= 0 {
			return restarts, fmt.Errorf("checkpoint: unrecoverable: %w", err)
		}
		if restarts >= attempts {
			return restarts, fmt.Errorf("checkpoint: restart budget (%d) exhausted: %w", attempts, err)
		}
		restarts++
		latest, _ := keeper.Latest()
		pol.Rearm(latest) // nil latest = clean re-execution from round 1
	}
}

// ReadMetaOnly is a cheap header probe: it decodes the metadata without
// unmarshalling the (possibly large) snapshot body.
func ReadMetaOnly(path string) (*Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, len(Magic)+8)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: truncated file", path)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(Magic):]); v != FileVersion {
		return nil, fmt.Errorf("checkpoint: %s: unsupported file version %d (want %d)", path, v, FileVersion)
	}
	metaLen := int64(binary.LittleEndian.Uint32(hdr[len(Magic)+4:]))
	if st, err := f.Stat(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	} else if metaLen > st.Size()-int64(len(hdr)) {
		return nil, fmt.Errorf("checkpoint: %s: truncated metadata", path)
	}
	mb := make([]byte, metaLen)
	if _, err := io.ReadFull(f, mb); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: truncated metadata", path)
	}
	meta := &Meta{}
	if err := json.Unmarshal(mb, meta); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: bad metadata: %w", path, err)
	}
	return meta, nil
}
