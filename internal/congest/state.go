// Checkpoint/restore support: a versioned, deterministic snapshot of a
// running engine taken at a round barrier, sufficient for bit-exact resume.
//
// The engine state that matters at a barrier is small and explicit: the
// per-node protocol state (walked by the nodes themselves via Stateful),
// the inboxes staged for the next round, the logical Stats and congestion
// counters, and — when a delivery substrate or a phase-attributing
// observer is installed — their opaque state, also via Stateful. Which
// nodes the scheduler would step next is not part of it: a restored
// engine steps every node in the resume round, and that step rebuilds the
// scheduler's state (see restore). Every layout is one Codec walk that
// both encodes and decodes it, so two snapshots of identical logical
// states are byte-identical, and a snapshot round-trips through
// MarshalBinary across processes.
//
// Multi-phase algorithms run many engines in sequence. A CheckpointPolicy
// threads through all of them (via Config.Checkpoint) and counts engine
// runs; a Snapshot records which run it was taken in (RunIdx) and resuming
// re-executes the earlier runs deterministically — they are pure functions
// of the input — before restoring into the matching run and continuing
// from the recorded round.
package congest

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// SnapshotVersion is the current snapshot format version. Snapshots are
// rejected on version mismatch — the format follows the engine's internal
// state, so cross-version restore is out of scope by policy (see
// DESIGN.md, "Crash faults & checkpointing").
const SnapshotVersion = 4

// Crasher is implemented by Networks that script crash-stop node faults
// (internal/faults with CrashEvent entries). CrashDue reports a crash
// scheduled for round r — the engine converts it into a CrashError before
// stepping anyone — and disarms it (a fired crash never re-fires, even
// after Reset or restore: crash-stop is an event, not a state). NextCrash
// reports the earliest crash round ≥ after still armed (0 = none), so the
// active scheduler's fast-forward cannot jump over one.
type Crasher interface {
	CrashDue(r int) (node, restart int, ok bool)
	NextCrash(after int) int
}

// PhaseTracker is implemented by Observers that know the current algorithm
// phase (internal/obs.Recorder); the engine uses it to attribute
// CrashErrors to a phase.
type PhaseTracker interface {
	CurrentPhase() string
}

// CrashError reports a crash-stop node fault: a scripted crash event or a
// recovered panic inside a node's Round. The engine aborts the run at a
// clean barrier and returns it; other nodes' state is intact.
type CrashError struct {
	// Node is the crashed processor; Round the round it crashed in.
	Node, Round int
	// Phase is the algorithm phase at crash time (when the observer tracks
	// phases; "" otherwise).
	Phase string
	// Restart, when positive, is the round at which the fault plan allows
	// the node back; a supervisor (internal/checkpoint.Supervise) treats
	// the crash as recoverable and restores the latest checkpoint. 0 means
	// crash-stop for good.
	Restart int
	// Panic is the recovered panic value for panic-induced crashes; nil
	// for scripted ones.
	Panic interface{}
}

func (e *CrashError) Error() string {
	s := fmt.Sprintf("congest: node %d crashed in round %d", e.Node, e.Round)
	if e.Phase != "" {
		s += fmt.Sprintf(" (phase %q)", e.Phase)
	}
	if e.Panic != nil {
		s += fmt.Sprintf(": panic: %v", e.Panic)
	}
	return s
}

// ErrCheckpointStop is returned by Run when a CheckpointPolicy with Stop
// set fired: the snapshot was taken and delivered to the Sink, and the
// run was deliberately killed at the barrier (the testable stand-in for a
// process kill).
var ErrCheckpointStop = errors.New("congest: run stopped at checkpoint")

// CheckpointPolicy tells the engine when to snapshot and what to resume
// from. One policy value is shared by every engine run of a multi-phase
// algorithm (thread it via Config.Checkpoint / the protocols' Opts): it
// counts runs, so Snapshot.RunIdx identifies the phase and resume
// re-executes earlier phases deterministically before restoring.
type CheckpointPolicy struct {
	// Every, when positive, snapshots at every round divisible by it (in
	// every engine run).
	Every int
	// AtRound, when positive, snapshots at exactly that round of engine
	// run Run (0-based across the policy's lifetime).
	AtRound int
	Run     int
	// Stop kills the run (ErrCheckpointStop) right after the AtRound
	// snapshot is delivered.
	Stop bool
	// Sink receives every snapshot. A nil Sink disables checkpointing.
	Sink func(*Snapshot) error
	// Resume, when set, restores this snapshot: engine runs before
	// Resume.RunIdx execute normally (deterministic re-execution), the
	// matching run restores at the barrier and continues from
	// Resume.Round. Snapshot triggers at or before the resume point are
	// suppressed so a resumed run does not immediately re-fire the stop
	// that killed its predecessor.
	Resume *Snapshot

	runs int
}

// Rearm resets the policy's run counter and installs s as the resume
// point (nil restarts from scratch): a supervisor restarting a crashed
// computation re-executes every engine run from the beginning, so the
// run indices must be handed out afresh.
func (p *CheckpointPolicy) Rearm(s *Snapshot) {
	p.runs = 0
	p.Resume = s
}

// beginRun hands out this engine run's index.
func (p *CheckpointPolicy) beginRun() int {
	i := p.runs
	p.runs++
	return i
}

// resuming reports whether (runIdx, r) is at or before the resume point.
func (p *CheckpointPolicy) resuming(runIdx, r int) bool {
	return p.Resume != nil &&
		(runIdx < p.Resume.RunIdx || (runIdx == p.Resume.RunIdx && r <= p.Resume.Round))
}

// due reports whether a snapshot fires at round r of run runIdx, and
// whether the run stops after it.
func (p *CheckpointPolicy) due(runIdx, r int) (stop, due bool) {
	if p.Sink == nil || p.resuming(runIdx, r) {
		return false, false
	}
	if p.AtRound == r && p.Run == runIdx {
		return p.Stop, true
	}
	if p.Every > 0 && r%p.Every == 0 {
		return false, true
	}
	return false, false
}

// nextDue returns the earliest round ≥ after at which a snapshot may fire
// in run runIdx (0 = none): the fast-forward clamp.
func (p *CheckpointPolicy) nextDue(after, runIdx int) int {
	if p.Sink == nil {
		return 0
	}
	best := 0
	if p.Run == runIdx && p.AtRound >= after {
		best = p.AtRound
	}
	if p.Every > 0 {
		next := after + (p.Every-after%p.Every)%p.Every
		if best == 0 || next < best {
			best = next
		}
	}
	return best
}

// Snapshot is one engine checkpoint, taken at the top of round Round
// before that round's deliveries: everything a fresh engine over the same
// (graph, protocol, config) needs to continue bit-exactly. It holds no
// scheduler state, so the bytes do not depend on the scheduler a run
// used, and a snapshot resumes under either one.
type Snapshot struct {
	// Version guards the format (SnapshotVersion).
	Version int
	// N is the network size; RunIdx the engine-run index under the
	// policy; Round the next round to execute.
	N, RunIdx, Round int
	// Stats is the logical cost accumulated so far.
	Stats Stats
	// NodeSends and LinkLoad are the engine's congestion counters.
	NodeSends []int
	LinkLoad  [][]int32
	// Nodes holds each node's Stateful encoding; Inbox each node's staged
	// round-Round messages (nil = empty; always nil under a Network,
	// whose queued traffic lives in Net instead).
	Nodes [][]byte
	Inbox [][]byte
	// Net and Obs are the opaque Stateful states of the delivery
	// substrate and the observer (nil when absent or not snapshotting).
	Net []byte
	Obs []byte
}

// MarshalBinary encodes the snapshot as one deterministic byte stream.
func (s *Snapshot) MarshalBinary() ([]byte, error) { return encode(s.walk) }

// UnmarshalBinary decodes a MarshalBinary stream.
func (s *Snapshot) UnmarshalBinary(data []byte) error { return decode(data, s.walk) }

func (s *Snapshot) walk(c *Codec) error {
	c.Int(&s.Version)
	if c.dec && c.err == nil && s.Version != SnapshotVersion {
		return fmt.Errorf("congest: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	c.Int(&s.N)
	c.Int(&s.RunIdx)
	c.Int(&s.Round)
	c.Stats(&s.Stats)
	c.Ints(&s.NodeSends)
	for i := range uslice(c, &s.LinkLoad) {
		for j := range uslice(c, &s.LinkLoad[i]) {
			Varint(c, &s.LinkLoad[i][j])
		}
	}
	for _, blobs := range []*[][]byte{&s.Nodes, &s.Inbox} {
		for i := range uslice(c, blobs) {
			c.Blob(&(*blobs)[i])
		}
	}
	c.Blob(&s.Net)
	c.Blob(&s.Obs)
	return nil
}

// Payload codec registry. Protocol packages register a walk per payload
// type in an init function; the engine uses them to serialize in-flight
// messages (inboxes, the fault network's queues) by name, so a snapshot
// taken in one process restores in another. The concrete type selects the
// codec when encoding, the name when decoding.
type payloadCodec struct {
	name string
	walk func(*Codec, *Payload)
}

var payloadCodecs = struct {
	sync.RWMutex
	byName map[string]*payloadCodec
	byType map[reflect.Type]*payloadCodec
}{
	byName: make(map[string]*payloadCodec),
	byType: make(map[reflect.Type]*payloadCodec),
}

// RegisterPayloadCodec registers walk under a unique name as the codec of
// payload type T (payloads of exactly that dynamic type). Decoding hands
// walk a zero T to fill; a pointer T allocates it there. Registration
// typically happens in the protocol package's init; duplicate names or
// types panic.
func RegisterPayloadCodec[T Payload](name string, walk func(*Codec, *T)) {
	payloadCodecs.Lock()
	defer payloadCodecs.Unlock()
	t := reflect.TypeOf((*T)(nil)).Elem()
	if _, dup := payloadCodecs.byName[name]; dup {
		panic(fmt.Sprintf("congest: payload codec %q registered twice", name))
	}
	if _, dup := payloadCodecs.byType[t]; dup {
		panic(fmt.Sprintf("congest: payload type %v registered twice", t))
	}
	pc := &payloadCodec{name: name, walk: func(c *Codec, p *Payload) {
		var x T
		if !c.dec {
			x = (*p).(T)
		}
		walk(c, &x)
		if c.dec {
			*p = x
		}
	}}
	payloadCodecs.byName[name] = pc
	payloadCodecs.byType[t] = pc
}

// Message walks one in-flight message: its endpoints, the registered
// codec's name and the payload through that codec.
func (c *Codec) Message(m *Message) {
	c.Int(&m.From)
	c.Int(&m.To)
	var pc *payloadCodec
	var name string
	if !c.dec {
		payloadCodecs.RLock()
		pc = payloadCodecs.byType[reflect.TypeOf(m.Payload)]
		payloadCodecs.RUnlock()
		if pc == nil {
			c.Fail(fmt.Errorf("congest: no payload codec registered for %T", m.Payload))
			return
		}
		name = pc.name
	}
	c.String(&name)
	if c.dec {
		if c.err != nil {
			return
		}
		payloadCodecs.RLock()
		pc = payloadCodecs.byName[name]
		payloadCodecs.RUnlock()
		if pc == nil {
			c.Fail(fmt.Errorf("congest: no payload codec registered under %q", name))
			return
		}
	}
	pc.walk(c, &m.Payload)
}

// snapshot captures the engine at the top of round r (before round-r
// deliveries) — see Snapshot for the field-by-field contract.
func (e *engine) snapshot(r, runIdx int) (*Snapshot, error) {
	n := len(e.nodes)
	s := &Snapshot{
		Version:   SnapshotVersion,
		N:         n,
		RunIdx:    runIdx,
		Round:     r,
		Stats:     e.stats,
		NodeSends: append([]int(nil), e.nodeSends...),
		LinkLoad:  make([][]int32, n),
		Nodes:     make([][]byte, n),
		Inbox:     make([][]byte, n),
	}
	for v := 0; v < n; v++ {
		// Per-node rows are carved out of the flat congestion and receive
		// planes: the encoded stream is identical to the historical
		// per-node-slice layout, which is the on-disk compatibility
		// contract (see checkpoint_compat_test.go).
		lo, hi := e.sendOff[v], e.sendOff[v+1]
		s.LinkLoad[v] = append([]int32(nil), e.linkLoad[lo:hi]...)
		st, ok := e.nodes[v].(Stateful)
		if !ok {
			return nil, fmt.Errorf("congest: checkpoint: node %d (%T) does not implement Stateful", v, e.nodes[v])
		}
		var err error
		if s.Nodes[v], err = Marshal(st); err != nil {
			return nil, fmt.Errorf("congest: checkpoint: node %d state: %w", v, err)
		}
		if msgs := inbox(e.inboxOf(v)); len(msgs) > 0 {
			if s.Inbox[v], err = encode(msgs.State); err != nil {
				return nil, fmt.Errorf("congest: checkpoint: inbox of node %d: %w", v, err)
			}
		}
	}
	var err error
	if st, ok := e.net.(Stateful); ok {
		if s.Net, err = Marshal(st); err != nil {
			return nil, fmt.Errorf("congest: checkpoint: network state: %w", err)
		}
	}
	if st, ok := e.obs.(Stateful); ok {
		if s.Obs, err = Marshal(st); err != nil {
			return nil, fmt.Errorf("congest: checkpoint: observer state: %w", err)
		}
	}
	return s, nil
}

// inbox is one node's staged messages, the layout of a Snapshot.Inbox
// entry.
type inbox []Message

func (in *inbox) State(c *Codec) error {
	for i := range Slice(c, in) {
		c.Message(&(*in)[i])
	}
	return nil
}

// restore loads a snapshot into a freshly initialized engine (mk and Init
// have run; the snapshot overwrites all round-evolving state). The caller
// starts the round loop at s.Round, in which every node is due: the
// snapshot holds no scheduler state, and a step that comes too early is
// always safe (see Waker). That step refreshes each node's quiescence and
// next wake, so the rounds after it schedule exactly as the original run
// did, under either scheduler.
func (e *engine) restore(s *Snapshot) error {
	n := len(e.nodes)
	if s.Version != SnapshotVersion {
		return fmt.Errorf("snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.N != n {
		return fmt.Errorf("snapshot is for n=%d, engine has n=%d", s.N, n)
	}
	if len(s.Nodes) != n || len(s.NodeSends) != n || len(s.LinkLoad) != n {
		return fmt.Errorf("snapshot field lengths do not match n=%d", n)
	}
	for v := 0; v < n; v++ {
		st, ok := e.nodes[v].(Stateful)
		if !ok {
			return fmt.Errorf("node %d (%T) does not implement Stateful", v, e.nodes[v])
		}
		if err := Unmarshal(s.Nodes[v], st); err != nil {
			return fmt.Errorf("node %d state: %w", v, err)
		}
		lo, hi := e.sendOff[v], e.sendOff[v+1]
		if len(s.LinkLoad[v]) != int(hi-lo) {
			return fmt.Errorf("node %d link-load width %d, want %d", v, len(s.LinkLoad[v]), hi-lo)
		}
		copy(e.linkLoad[lo:hi], s.LinkLoad[v])
	}
	e.stats = s.Stats
	copy(e.nodeSends, s.NodeSends)
	// Rebuild the receive plane: each node's staged messages are appended
	// as one contiguous run (nodes visited ascending, so the plane layout
	// matches what a live routing pass would have scattered) and the
	// (end, len) cursors plus the destination list are restored with it.
	for _, v := range e.recvList {
		e.inLen[v] = 0
	}
	e.recvList = e.recvList[:0]
	e.recvCur = e.recvCur[:0]
	for v := 0; v < n; v++ {
		if v < len(s.Inbox) && len(s.Inbox[v]) > 0 {
			var msgs inbox
			if err := decode(s.Inbox[v], msgs.State); err != nil {
				return fmt.Errorf("inbox of node %d: %w", v, err)
			}
			start := len(e.recvCur)
			for _, m := range msgs {
				if m.To != v || m.From < 0 || m.From >= n {
					return fmt.Errorf("inbox of node %d holds a message %d→%d", v, m.From, m.To)
				}
				e.recvCur = append(e.recvCur, m)
			}
			if len(e.recvCur) > start {
				e.inEnd[v] = int32(len(e.recvCur))
				e.inLen[v] = int32(len(e.recvCur) - start)
				e.recvList = append(e.recvList, v)
			}
		}
	}
	if st, ok := e.net.(Stateful); ok != (s.Net != nil) {
		if ok {
			return fmt.Errorf("engine has a snapshotting network but the snapshot carries no network state")
		}
		return fmt.Errorf("snapshot carries network state but the engine's network (%T) cannot restore it", e.net)
	} else if ok {
		if err := Unmarshal(s.Net, st); err != nil {
			return fmt.Errorf("network state: %w", err)
		}
	}
	if st, ok := e.obs.(Stateful); ok && s.Obs != nil {
		if err := Unmarshal(s.Obs, st); err != nil {
			return fmt.Errorf("observer state: %w", err)
		}
	}

	// No node counts as quiescent until it has stepped, so the run cannot
	// end before the resume round. Wakers wake in it; every other node
	// joins the every-round list, which its first quiescent step leaves.
	clear(e.quiescent)
	e.quiCount = 0
	e.wakes.items = e.wakes.items[:0]
	e.alwaysList = e.alwaysList[:0]
	for v, w := range e.wakers { // nil under the dense scheduler, which steps every node
		if w != nil {
			e.wakeAt[v] = s.Round
			e.wakes.push(wakeItem{round: s.Round, node: v})
		} else {
			e.alwaysOn[v] = true
			e.alwaysList = append(e.alwaysList, v)
		}
	}
	e.inflight = len(e.recvCur)
	if e.net != nil {
		e.inflight = e.net.Pending()
	}
	return nil
}
