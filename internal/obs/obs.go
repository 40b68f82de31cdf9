// Package obs is the observability subsystem for the CONGEST engine and
// every algorithm layered on it: a phase-attributing Recorder that
// implements congest.Observer, plus pluggable sinks that turn the event
// stream into artifacts — a structured JSONL trace (jsonl.go), a Chrome
// trace_event file for chrome://tracing / Perfetto (chrome.go), and a
// Prometheus-text metrics dump (metrics.go).
//
// The paper's claims (Theorems I.1–I.5, Table I, Corollary I.4) are
// statements about where rounds and congestion go — short-range phase vs.
// blocker construction vs. pipelined propagation — so the Recorder
// attributes every engine event to the algorithm phase that was current
// when it happened (congest.SetPhase), and guarantees that the per-phase
// Stats sum exactly to the aggregate congest.Stats: phase stats are
// accumulated with the same Stats.Add the multi-phase algorithms use
// (rounds and messages add, congestion takes the max), over exactly the
// same sequence of engine runs.
package obs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/congest"
	"repro/internal/faults"
)

// Event is one observability record, already phase-attributed. All sinks
// consume the same stream; fields not meaningful for a kind are zero.
type Event struct {
	// TS is the event time as an offset from the Recorder's start, in
	// microseconds.
	TS int64 `json:"ts"`
	// Kind is one of "phase", "run_start", "round", "node_sends",
	// "link_peak", "phys_round", "run_done", "checkpoint_save",
	// "checkpoint_load".
	Kind string `json:"kind"`
	// Phase is the algorithm phase the event is attributed to.
	Phase string `json:"phase"`
	// Run is the 1-based engine-run sequence number within the recorder's
	// lifetime (a multi-phase algorithm is many engine runs).
	Run int `json:"run,omitempty"`
	// Round is the 1-based round within the current engine run.
	Round int `json:"round,omitempty"`
	// GlobalRound is the cumulative number of executed rounds across all
	// engine runs, including this one — a monotone x-axis for plots.
	GlobalRound int `json:"globalRound,omitempty"`
	// N is the network size (run_start).
	N int `json:"n,omitempty"`
	// Sent and Active are the round's message count and sending-node count
	// (round).
	Sent   int `json:"sent,omitempty"`
	Active int `json:"active,omitempty"`
	// RoundUS is the round's wall-clock duration in microseconds (round).
	RoundUS int64 `json:"roundUs,omitempty"`
	// Node and Msgs are one node's sends this round (node_sends).
	Node int `json:"node,omitempty"`
	Msgs int `json:"msgs,omitempty"`
	// From, To, Load describe a new per-link congestion maximum
	// (link_peak).
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	Load int `json:"load,omitempty"`
	// Stats is the finished run's cost report (run_done).
	Stats *congest.Stats `json:"stats,omitempty"`
	// Phys is one logical round's physical-delivery cost under an
	// adversarial network (phys_round; see faults.PhysStats).
	Phys *faults.PhysStats `json:"phys,omitempty"`
	// CkptDurUS and CkptBytes describe one checkpoint persistence
	// operation (checkpoint_save / checkpoint_load): wall-clock duration
	// in microseconds and the serialized snapshot size.
	CkptDurUS int64 `json:"ckptDurUs,omitempty"`
	CkptBytes int64 `json:"ckptBytes,omitempty"`
}

// Sink consumes the phase-attributed event stream. Emit is called
// synchronously from the engine's routing goroutine (under the Recorder's
// lock); Close flushes whatever the sink buffers.
type Sink interface {
	Emit(e Event) error
	Close() error
}

// PhaseBreakdown is one phase's accumulated cost, in first-use order.
type PhaseBreakdown struct {
	// Phase is the name set via congest.SetPhase ("main" if none was).
	Phase string `json:"phase"`
	// Stats accumulates the phase's engine runs with congest.Stats.Add
	// semantics: Rounds and Messages add, the max fields take the max.
	Stats congest.Stats `json:"stats"`
	// Runs is the number of engine runs attributed to the phase.
	Runs int `json:"runs"`
	// RoundsExecuted counts executed rounds, including trailing quiescing
	// rounds that Stats.Rounds excludes.
	RoundsExecuted int `json:"roundsExecuted"`
	// Wall is the phase's accumulated wall-clock round time.
	Wall time.Duration `json:"wallNs"`
	// Phys accumulates the phase's physical-delivery cost when the engine
	// runs over an adversarial network (all-zero otherwise).
	Phys faults.PhysStats `json:"phys,omitempty"`
}

// Recorder implements congest.Observer and congest.Phaser: it attributes
// every engine event to the current phase, maintains per-phase and total
// cost accounting, and fans the enriched events out to its sinks.
//
// A single Recorder may observe many engine runs (a BlockerAPSP run is
// dozens), but must not be shared by concurrent runs that interleave
// phases: attribution follows the latest Phase call.
type Recorder struct {
	mu    sync.Mutex
	start time.Time
	sinks []Sink
	err   error // first sink error

	byName      map[string]*PhaseBreakdown
	order       []*PhaseBreakdown
	cur         *PhaseBreakdown
	total       congest.Stats
	phys        faults.PhysStats
	physSeen    bool
	runs        int
	globalRound int // executed rounds across finished and current runs
	runBase     int // globalRound at the start of the current run
}

// NewRecorder returns a Recorder fanning out to the given sinks (none is
// fine: the Recorder still produces the per-phase breakdown).
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{
		start:  time.Now(),
		sinks:  sinks,
		byName: make(map[string]*PhaseBreakdown),
	}
}

// DefaultPhase is the phase events are attributed to before any Phase
// call.
const DefaultPhase = "main"

func (r *Recorder) emit(e Event) {
	e.TS = time.Since(r.start).Microseconds()
	e.Phase = r.cur.Phase
	e.Run = r.runs
	for _, s := range r.sinks {
		if err := s.Emit(e); err != nil && r.err == nil {
			r.err = fmt.Errorf("obs: sink emit: %w", err)
		}
	}
}

// ensurePhase returns the current phase, creating the default one lazily.
func (r *Recorder) ensurePhase() *PhaseBreakdown {
	if r.cur == nil {
		r.phaseLocked(DefaultPhase)
	}
	return r.cur
}

func (r *Recorder) phaseLocked(name string) {
	p, ok := r.byName[name]
	if !ok {
		p = &PhaseBreakdown{Phase: name}
		r.byName[name] = p
		r.order = append(r.order, p)
	}
	r.cur = p
}

// Phase switches attribution to the named phase (implements
// congest.Phaser). Returning to an earlier name resumes its accounting.
func (r *Recorder) Phase(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil && r.cur.Phase == name {
		return
	}
	r.phaseLocked(name)
	r.emit(Event{Kind: "phase"})
}

// RunStart implements congest.Observer.
func (r *Recorder) RunStart(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensurePhase()
	r.runs++
	r.runBase = r.globalRound
	r.emit(Event{Kind: "run_start", N: n})
}

// RoundDone implements congest.Observer.
func (r *Recorder) RoundDone(e congest.RoundEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.ensurePhase()
	p.RoundsExecuted++
	p.Wall += e.Elapsed
	r.globalRound = r.runBase + e.Round
	r.emit(Event{
		Kind:        "round",
		Round:       e.Round,
		GlobalRound: r.globalRound,
		Sent:        e.Sent,
		Active:      e.Active,
		RoundUS:     e.Elapsed.Microseconds(),
	})
}

// NodeSends implements congest.Observer.
func (r *Recorder) NodeSends(round, node, msgs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensurePhase()
	r.emit(Event{Kind: "node_sends", Round: round, GlobalRound: r.runBase + round, Node: node, Msgs: msgs})
}

// LinkPeak implements congest.Observer.
func (r *Recorder) LinkPeak(round, from, to, load int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensurePhase()
	r.emit(Event{Kind: "link_peak", Round: round, GlobalRound: r.runBase + round, From: from, To: to, Load: load})
}

// PhysRound implements faults.Sink: one logical round's physical-delivery
// cost is attributed to the current phase, accumulated, and emitted as a
// "phys_round" event. Wire the same Recorder as both the engine Observer
// and the faults.Network's Sink to get phase-attributed chaos accounting.
func (r *Recorder) PhysRound(round int, delta faults.PhysStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.ensurePhase()
	p.Phys.Add(delta)
	r.phys.Add(delta)
	r.physSeen = true
	r.emit(Event{Kind: "phys_round", Round: round, GlobalRound: r.runBase + round, Phys: &delta})
}

// CheckpointSave records one engine snapshot persisted to disk (wire it
// to checkpoint.Keeper.OnSave): the duration and byte count land in the
// trace stream and the metrics dump, attributed to the current phase.
func (r *Recorder) CheckpointSave(d time.Duration, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensurePhase()
	r.emit(Event{Kind: "checkpoint_save", CkptDurUS: d.Microseconds(), CkptBytes: bytes})
}

// CheckpointLoad records one checkpoint restored from disk.
func (r *Recorder) CheckpointLoad(d time.Duration, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensurePhase()
	r.emit(Event{Kind: "checkpoint_load", CkptDurUS: d.Microseconds(), CkptBytes: bytes})
}

// TotalPhys returns the aggregate physical-delivery cost across all
// observed engine runs, and whether any was recorded at all.
func (r *Recorder) TotalPhys() (faults.PhysStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.phys
	s.DelayHist = append([]int64(nil), r.phys.DelayHist...)
	return s, r.physSeen
}

// RunDone implements congest.Observer: the finished run's Stats are folded
// into the current phase and the total with congest.Stats.Add semantics,
// which is what makes Breakdown sum exactly to the aggregate.
func (r *Recorder) RunDone(s congest.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.ensurePhase()
	p.Stats.Add(s)
	p.Runs++
	r.total.Add(s)
	r.emit(Event{Kind: "run_done", Stats: &s})
}

// Breakdown returns the per-phase accounting in first-use order. The sum
// of the phases' Rounds and Messages equals Total()'s, and their max
// fields' maximum equals Total()'s, by construction.
func (r *Recorder) Breakdown() []PhaseBreakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PhaseBreakdown, len(r.order))
	for i, p := range r.order {
		out[i] = *p
	}
	return out
}

// Total returns the aggregate cost across all observed engine runs —
// identical to what a multi-phase algorithm reports as its Stats.
func (r *Recorder) Total() congest.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Runs returns the number of engine runs observed so far.
func (r *Recorder) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// Wall returns the total wall-clock round time across all phases.
func (r *Recorder) Wall() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var w time.Duration
	for _, p := range r.order {
		w += p.Wall
	}
	return w
}

// Close flushes and closes every sink and reports the first error any sink
// returned over the recorder's lifetime.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sinks {
		if m, ok := s.(*Metrics); ok {
			m.runs, m.phases = r.runs, r.order // the dump's accounting is the recorder's, not a second count
		}
		if err := s.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("obs: sink close: %w", err)
		}
	}
	r.sinks = nil
	return r.err
}

// Report is a machine-readable run summary: the aggregate cost plus the
// per-phase breakdown. cmd/apsprun serializes it behind -json and
// -stats-json so experiment trajectories can be tracked across commits.
type Report struct {
	// Alg, N, M, K identify the run (algorithm, nodes, edges, sources).
	Alg string `json:"alg,omitempty"`
	N   int    `json:"n,omitempty"`
	M   int    `json:"m,omitempty"`
	K   int    `json:"k,omitempty"`
	// Total is the aggregate engine cost.
	Total congest.Stats `json:"total"`
	// WallUS is total wall-clock round time in microseconds.
	WallUS int64 `json:"wallUs"`
	// Runs is the number of engine runs.
	Runs int `json:"runs"`
	// Phases is the per-phase breakdown, first-use order.
	Phases []PhaseBreakdown `json:"phases"`
	// Phys is the aggregate physical-delivery cost, present only when the
	// run went through an adversarial network (faults.Network).
	Phys *faults.PhysStats `json:"phys,omitempty"`
}

// ReportOf assembles a Report from the recorder's current state.
func (r *Recorder) ReportOf(alg string, n, m, k int) Report {
	rep := Report{
		Alg:    alg,
		N:      n,
		M:      m,
		K:      k,
		Total:  r.Total(),
		WallUS: r.Wall().Microseconds(),
		Runs:   r.Runs(),
		Phases: r.Breakdown(),
	}
	if phys, ok := r.TotalPhys(); ok {
		rep.Phys = &phys
	}
	return rep
}
