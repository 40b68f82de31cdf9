// Package checkpoint persists engine snapshots (congest.Snapshot) to disk
// and supervises crash-restart loops.
//
// A checkpoint file is a sealed container (WriteSealed, shared with the
// oracle's snapshot files): magic, a JSON metadata header identifying the
// computation (algorithm, graph fingerprint, sources, fault plan,
// disarmed crash events), the binary snapshot, and a CRC-32C
// over all of it. Load refuses any file whose checksum does not hold, so
// a torn or bit-flipped checkpoint is an error, never a wrong resume. The
// container has one layout: the unsealed version 1 files of older builds
// are refused by their version, not read. Matching the metadata against the
// computation being resumed is the caller's job (ValidateAgainst covers
// the common checks). Save writes atomically (WriteAtomic) so a crash
// mid-write never corrupts the previous checkpoint.
//
// Supervise implements the crash-restart loop: run the computation, and
// when it dies with a recoverable crash (congest.CrashError with
// Restart > 0), re-arm the policy with the latest snapshot and run it
// again — the re-executed prefix is deterministic, the restored suffix is
// bit-exact, so the supervised result equals the fault-free one.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
)

// Magic identifies a checkpoint file. Its container is versioned by
// WriteSealed, the snapshot payload by congest.SnapshotVersion.
const Magic = "APSPCKPT"

// Meta identifies the computation a snapshot belongs to. ValidateAgainst
// checks the instance, the query and the fault plan, the resume gate
// (family.LoadCheckpoint) checks Alg, and Disarmed is state the resuming
// process applies. A snapshot resumes under either scheduler and at any
// worker count, so Meta records neither.
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
// resume: same graph, same sources, same hop parameter, same fault plan.
func (m *Meta) ValidateAgainst(g *graph.Graph, sources []int, h int, plan string) error {
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
	return nil
}

// Save writes the checkpoint atomically: to a temp file in path's
// directory, synced, then renamed over path.
func Save(path string, meta *Meta, snap *congest.Snapshot) error {
	_, err := save(path, meta, snap)
	return err
}

// save is Save, reporting the container size so the Keeper's OnSave hook
// can account bytes without re-marshalling.
func save(path string, meta *Meta, snap *congest.Snapshot) (int64, error) {
	body, err := snap.MarshalBinary()
	if err != nil {
		return 0, fmt.Errorf("checkpoint: marshal snapshot: %w", err)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: marshal meta: %w", err)
	}
	n, err := WriteSealed(path, Magic, mb, body)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	return n, nil
}

// Load reads a checkpoint file.
func Load(path string) (*Meta, *congest.Snapshot, error) {
	mb, body, err := ReadSealed(path, Magic)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	meta := &Meta{}
	if err := json.Unmarshal(mb, meta); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %s: bad metadata: %w", path, err)
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
		meta = &Meta{N: s.N}
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
