package oracle

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/congest"
	"repro/internal/family"
	"repro/internal/faults"
	"repro/internal/graph"
)

// ComputeSpec describes one oracle precomputation in the terms of
// internal/family — which protocol family, on which backend, over which
// sources, under which engine environment — plus the two per-computation
// inputs the oracle turns into fresh engine hooks on every Compute: the
// fault plan as text and the snapshot to resume from. A checkpoint written
// by apsprun resumes here unchanged because both sides validate it through
// family.LoadCheckpoint.
type ComputeSpec struct {
	// Alg, Backend, Sources and H are family.Spec's. Only exact families
	// are served: approx yields a stretch bound, and the oracle contract
	// is exactness.
	Alg     string
	Backend string
	Sources []int
	H       int
	// Engine carries Workers, Scheduler and Observer. Its Network,
	// Checkpoint and Ctx are per-computation: Compute fills them from
	// Plan / FaultSeed, Resume and its ctx argument.
	Engine congest.Config
	// Plan is an adversarial-delivery plan in faults.Parse syntax
	// ("" or "none" = perfect delivery); FaultSeed keys the fault PRF when
	// the plan carries no seed term.
	Plan      string
	FaultSeed int64
	// Resume is an engine snapshot to restart from (see LoadCheckpoint).
	Resume *congest.Snapshot
}

// run is the family.Spec of one computation, with a fresh fault network
// (so its physical counters are this computation's alone) and a fresh
// checkpoint policy (a policy counts the engine runs it has seen).
func (sp ComputeSpec) run() (family.Spec, *faults.Network, error) {
	fnet, err := faults.Open(sp.Plan, sp.FaultSeed)
	if err != nil {
		return family.Spec{}, nil, err
	}
	eng := sp.Engine
	if fnet != nil {
		eng.Network = fnet
	}
	if sp.Resume != nil {
		eng.Checkpoint = &congest.CheckpointPolicy{Resume: sp.Resume}
	}
	return family.Spec{Alg: sp.Alg, Backend: sp.Backend, Sources: sp.Sources, H: sp.H, Engine: eng}, fnet, nil
}

// Compute runs the spec to completion and returns the result in BuildInput
// form, ready for Build. Families without parent records (blocker,
// scaling) yield distance-only inputs: /dist and /batch serve them, /path
// reports a typed error. Backend "parallel" labels its input
// "parallel/dijkstra" and carries zero engine Stats.
func Compute(ctx context.Context, g *graph.Graph, sp ComputeSpec) (BuildInput, error) {
	if exact := family.Names(true); sp.Backend != "parallel" && !slices.Contains(exact, sp.Alg) {
		return BuildInput{}, fmt.Errorf("oracle: -alg %q is not an exact family (want %s)", sp.Alg, strings.Join(exact, " | "))
	}
	fsp, fnet, err := sp.run()
	if err != nil {
		return BuildInput{}, err
	}
	fsp.Engine.Ctx = ctx
	res, err := family.Run(g, fsp)
	if err != nil {
		return BuildInput{}, err
	}
	in := BuildInput{Alg: res.Alg, Matrix: res.Matrix, Stats: res.Stats}
	if fnet != nil {
		// The shim's physical cost travels with the result: the serving
		// layer exports it (retransmits, duplicate deliveries) per snapshot.
		phys := fnet.Phys()
		in.Phys = &phys
	}
	return in, nil
}

// LoadCheckpoint reads an apsprun checkpoint file, validates its metadata
// against the graph and spec (the same gate apsprun -resume applies), and
// arms sp.Resume with the snapshot. When sp.Alg is empty it is adopted
// from the checkpoint, so `apspd -load run.ckpt` needs no -alg flag.
//
// Checkpoints taken under scripted crash faults (apsprun -crash) carry
// disarmed-event state the oracle cannot replay and are rejected.
func LoadCheckpoint(path string, g *graph.Graph, sp *ComputeSpec) error {
	fsp, _, err := sp.run()
	if err != nil {
		return err
	}
	meta, snap, err := family.LoadCheckpoint(path, g, &fsp)
	if err != nil {
		return err
	}
	if len(meta.Disarmed) > 0 {
		return fmt.Errorf("oracle: checkpoint %s carries scripted crash-fault state; resume it with apsprun -resume instead", path)
	}
	sp.Alg, sp.Sources, sp.Resume = fsp.Alg, fsp.Sources, snap
	return nil
}
