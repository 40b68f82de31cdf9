package obs

import (
	"fmt"
	"io"
	"os"
)

// metricsBuckets are the upper bounds of the per-round message-count
// histogram (Prometheus "le" convention; +Inf is implicit).
var metricsBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// Metrics writes, on Close, a Prometheus text dump (via the shared Registry
// encoder) that node_exporter-style tooling (or grep) can consume. The
// run, round, message, wall-time, congestion and physical-delivery series
// are the Recorder's own accounting (the numbers -stats-json reports, which
// survive a checkpoint restore), handed over by Recorder.Close; from the
// event stream the sink keeps only what the Recorder does not — the
// per-round node peak, the per-round message histogram and the checkpoint
// totals — and those count every executed event, re-executions included.
type Metrics struct {
	w      io.Writer
	closer io.Closer

	runs   int               // Recorder.Close: engine runs
	phases []*PhaseBreakdown // Recorder.Close: per-phase accounting, first-use order

	maxNode map[string]int // phase -> peak single-node sends in one round

	bucketRaw []int64 // per-bucket (non-cumulative) round message counts
	msgInf    int64   // rounds above the last bucket bound
	msgSum    int64

	// Checkpoint persistence totals (checkpoint_save / checkpoint_load
	// events; zero on runs without a checkpoint policy).
	ckptSaves, ckptLoads   int64
	ckptSaveUS, ckptLoadUS int64
	ckptSaveBytes          int64
}

// NewMetrics wraps an io.Writer. If w is also an io.Closer it is closed by
// Close.
func NewMetrics(w io.Writer) *Metrics {
	m := &Metrics{
		w:         w,
		maxNode:   make(map[string]int),
		bucketRaw: make([]int64, len(metricsBuckets)),
	}
	if cl, ok := w.(io.Closer); ok {
		m.closer = cl
	}
	return m
}

// CreateMetrics opens (truncating) path and returns a Metrics sink writing
// to it.
func CreateMetrics(path string) (*Metrics, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create metrics file: %w", err)
	}
	return NewMetrics(f), nil
}

// Emit implements Sink.
func (m *Metrics) Emit(e Event) error {
	switch e.Kind {
	case "round":
		m.msgSum += int64(e.Sent)
		placed := false
		for i, le := range metricsBuckets {
			if float64(e.Sent) <= le {
				m.bucketRaw[i]++
				placed = true
				break
			}
		}
		if !placed {
			m.msgInf++
		}
	case "node_sends":
		m.maxNode[e.Phase] = max(m.maxNode[e.Phase], e.Msgs)
	case "checkpoint_save":
		m.ckptSaves++
		m.ckptSaveUS += e.CkptDurUS
		m.ckptSaveBytes += e.CkptBytes
	case "checkpoint_load":
		m.ckptLoads++
		m.ckptLoadUS += e.CkptDurUS
	}
	return nil
}

// Close implements Sink: folds the accounting into a Registry and writes
// it.
func (m *Metrics) Close() error {
	reg := NewRegistry()
	reg.Counter("congest_runs_total", "engine runs observed").Add(float64(m.runs))
	perPhase := func(gauge bool, name, help string, val func(p *PhaseBreakdown) float64) {
		for _, p := range m.phases {
			if gauge {
				reg.Gauge(name, help, L("phase", p.Phase)).Set(val(p))
			} else {
				reg.Counter(name, help, L("phase", p.Phase)).Add(val(p))
			}
		}
	}
	perPhase(false, "congest_phase_rounds_total", "rounds executed per phase (incl. quiescing rounds)",
		func(p *PhaseBreakdown) float64 { return float64(p.RoundsExecuted) })
	perPhase(false, "congest_phase_messages_total", "messages sent per phase",
		func(p *PhaseBreakdown) float64 { return float64(p.Stats.Messages) })
	perPhase(false, "congest_phase_wall_seconds_total", "wall-clock round time per phase",
		func(p *PhaseBreakdown) float64 { return p.Wall.Seconds() })
	perPhase(true, "congest_phase_max_link_congestion", "peak per-link congestion seen in a phase",
		func(p *PhaseBreakdown) float64 { return float64(p.Stats.MaxLinkCongestion) })
	perPhase(true, "congest_phase_max_node_sends", "peak single-node sends in one round per phase (over every executed round, re-executions after a restart included)",
		func(p *PhaseBreakdown) float64 { return float64(m.maxNode[p.Phase]) })
	phys := false
	for _, p := range m.phases {
		phys = phys || p.Phys.DataSends+p.Phys.Retransmits+p.Phys.DupCopies > 0 || p.Phys.SubRounds > 0
	}
	if phys { // the phys series are omitted entirely on fault-free runs
		perPhase(false, "congest_phase_phys_sends_total", "physical transmissions per phase (incl. retransmits and duplicates)",
			func(p *PhaseBreakdown) float64 {
				return float64(p.Phys.DataSends + p.Phys.Retransmits + p.Phys.DupCopies)
			})
		perPhase(false, "congest_phase_phys_retransmits_total", "retransmissions per phase",
			func(p *PhaseBreakdown) float64 { return float64(p.Phys.Retransmits) })
		perPhase(false, "congest_phase_phys_drops_total", "adversary-dropped transmissions per phase (data + ack)",
			func(p *PhaseBreakdown) float64 { return float64(p.Phys.DataDrops + p.Phys.AckDrops) })
		perPhase(false, "congest_phase_phys_subrounds_total", "simulated physical sub-rounds per phase",
			func(p *PhaseBreakdown) float64 { return float64(p.Phys.SubRounds) })
	}
	if m.ckptSaves > 0 || m.ckptLoads > 0 {
		reg.Counter("congest_checkpoint_writes_total", "engine snapshots persisted to disk (every write, restarts included)").Add(float64(m.ckptSaves))
		reg.Counter("congest_checkpoint_write_seconds_total", "wall-clock time spent persisting snapshots").Add(float64(m.ckptSaveUS) / 1e6)
		reg.Counter("congest_checkpoint_write_bytes_total", "serialized snapshot bytes written").Add(float64(m.ckptSaveBytes))
		reg.Counter("congest_checkpoint_loads_total", "engine snapshots restored from disk").Add(float64(m.ckptLoads))
		reg.Counter("congest_checkpoint_load_seconds_total", "wall-clock time spent restoring snapshots").Add(float64(m.ckptLoadUS) / 1e6)
	}
	h := reg.Histogram("congest_round_messages", "per-round message counts (every executed round, re-executions after a restart included)", metricsBuckets)
	h.restore(m.bucketRaw, m.msgInf, float64(m.msgSum))

	err := reg.Write(m.w)
	if m.closer != nil {
		if cerr := m.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
