package difftest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/key"
)

// FaultInput is a (graph, sources, fault-script) triple — the unit the
// shrinker minimizes. The fault script is explicit (faults.Event), so a
// probabilistic chaos run is first frozen via Unreliable.Recorded and
// then handed here.
type FaultInput struct {
	G       *graph.Graph
	Sources []int
	H       int
	Events  []faults.Event
	// Checkpoint, when positive, is the round at which the run under test
	// snapshots and resumes (the checkpoint/restore conformance harness).
	// 0 means no checkpoint; the shrinker tries to lower it toward 0.
	Checkpoint int
}

// Clone deep-copies the input (graphs are rebuilt edge by edge).
func (in FaultInput) Clone() FaultInput {
	out := FaultInput{
		G:          in.G.Clone(),
		Sources:    append([]int(nil), in.Sources...),
		H:          in.H,
		Events:     append([]faults.Event(nil), in.Events...),
		Checkpoint: in.Checkpoint,
	}
	return out
}

// Dump renders the input in the committed-fixture form ParseFaultInput
// reads back: a header line, one "e from to w" line per edge, one
// "f <event>" line per fault event.
func (in FaultInput) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d directed=%v sources=%s h=%d",
		in.G.N(), in.G.Directed(), intList(in.Sources), in.H)
	if in.Checkpoint != 0 {
		fmt.Fprintf(&sb, " checkpoint=%d", in.Checkpoint)
	}
	sb.WriteByte('\n')
	for _, e := range in.G.Edges() {
		fmt.Fprintf(&sb, "e %d %d %d\n", e.From, e.To, e.W)
	}
	for _, ev := range in.Events {
		fmt.Fprintf(&sb, "f %s\n", ev)
	}
	return sb.String()
}

// parseIntList is the inverse of intList.
func parseIntList(s string) ([]int, error) {
	var xs []int
	for _, p := range strings.Split(s, ",") {
		x, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		xs = append(xs, x)
	}
	return xs, nil
}

func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// ParseFaultInput is the inverse of Dump; it accepts the committed
// regression fixtures under testdata/.
func ParseFaultInput(s string) (FaultInput, error) {
	var in FaultInput
	var n int
	directed := true
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for len(lines) > 0 { // skip leading comments and blanks before the header
		l := strings.TrimSpace(lines[0])
		if l != "" && !strings.HasPrefix(l, "#") {
			break
		}
		lines = lines[1:]
	}
	if len(lines) == 0 || lines[0] == "" {
		return in, fmt.Errorf("difftest: empty fixture")
	}
	err := key.Scan("difftest", "header field", lines[0], "", key.Vocab{
		"n":          {Set: key.Into(&n, strconv.Atoi)},
		"directed":   {Set: key.Into(&directed, strconv.ParseBool)},
		"h":          {Set: key.Into(&in.H, strconv.Atoi)},
		"checkpoint": {Set: key.Into(&in.Checkpoint, strconv.Atoi)},
		"sources":    {Set: key.Into(&in.Sources, parseIntList)},
	})
	if err != nil {
		return in, err
	}
	if n <= 0 {
		return in, fmt.Errorf("difftest: fixture has no n")
	}
	in.G = graph.New(n, directed)
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "e "):
			var u, v int
			var w int64
			if _, err := fmt.Sscanf(line, "e %d %d %d", &u, &v, &w); err != nil {
				return in, fmt.Errorf("difftest: bad edge line %q: %v", line, err)
			}
			if err := in.G.AddEdge(u, v, w); err != nil {
				return in, fmt.Errorf("difftest: %v", err)
			}
		case strings.HasPrefix(line, "f "):
			ev, err := faults.ParseEvent(strings.TrimPrefix(line, "f "))
			if err != nil {
				return in, fmt.Errorf("difftest: %v", err)
			}
			in.Events = append(in.Events, ev)
		default:
			return in, fmt.Errorf("difftest: unrecognized fixture line %q", line)
		}
	}
	return in, nil
}

// ShrinkCheck reports whether the candidate input still reproduces the
// failure under investigation. It must be deterministic: Shrink revisits
// inputs and assumes stable answers.
type ShrinkCheck func(FaultInput) bool

// Shrink minimizes a failing (graph, sources, fault-script) triple to a
// locally minimal input that still fails, in the delta-debugging style:
// event-list reduction (halves, then singles), node removal with
// relabeling, edge removal, source removal, then weight and delay-arg
// shrinking — repeated to a fixpoint. fails(in) must be true on entry;
// every accepted step preserves it, so the result is always a failing
// input no larger than the original.
func Shrink(in FaultInput, fails ShrinkCheck) FaultInput {
	cur := in.Clone()
	if !fails(cur) {
		return cur // not a failure; nothing meaningful to shrink
	}
	for {
		next := shrinkPass(cur, fails)
		if !smaller(next, cur) {
			return cur
		}
		cur = next
	}
}

// size orders inputs for the fixpoint test: nodes dominate, then edges,
// events, sources, then total weight + delay magnitude, and finally the
// checkpoint round, so weight and checkpoint shrinking count as progress.
func size(in FaultInput) [6]int64 {
	var w int64
	for _, e := range in.G.Edges() {
		w += e.W
	}
	var args int64
	for _, ev := range in.Events {
		args += int64(ev.Arg)
	}
	return [6]int64{int64(in.G.N()), int64(in.G.M()), int64(len(in.Events)), int64(len(in.Sources)), w + args, int64(in.Checkpoint)}
}

func smaller(a, b FaultInput) bool {
	sa, sb := size(a), size(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return sa[i] < sb[i]
		}
	}
	return false
}

func shrinkPass(cur FaultInput, fails ShrinkCheck) FaultInput {
	cur = shrinkEvents(cur, fails)
	cur = shrinkNodes(cur, fails)
	cur = shrinkEdges(cur, fails)
	cur = shrinkSources(cur, fails)
	cur = shrinkMagnitudes(cur, fails)
	cur = shrinkCheckpoint(cur, fails)
	return cur
}

// shrinkCheckpoint lowers the checkpoint round: no checkpoint at all, the
// first barrier, then halving.
func shrinkCheckpoint(cur FaultInput, fails ShrinkCheck) FaultInput {
	if cur.Checkpoint <= 0 {
		return cur
	}
	for _, r := range []int{0, 1, cur.Checkpoint / 2} {
		if r >= cur.Checkpoint {
			continue
		}
		cand := cur.Clone()
		cand.Checkpoint = r
		if fails(cand) {
			cur = cand
			break
		}
	}
	return cur
}

// shrinkEvents is DDMin over the fault script. Each candidate gets its own
// copy of the input, as every other shrinking step's does.
func shrinkEvents(cur FaultInput, fails ShrinkCheck) FaultInput {
	cur.Events = DDMin(cur.Events, func(evs []faults.Event) bool {
		cand := cur.Clone()
		cand.Events = append(cand.Events[:0], evs...)
		return fails(cand)
	})
	return cur
}

// shrinkNodes removes one node at a time (highest id first), relabeling
// the survivors densely and rewriting sources and events. Source nodes
// are kept.
func shrinkNodes(cur FaultInput, fails ShrinkCheck) FaultInput {
	for v := cur.G.N() - 1; v >= 0; v-- {
		if cur.G.N() <= 2 {
			break
		}
		if containsInt(cur.Sources, v) {
			continue
		}
		cand, ok := removeNode(cur, v)
		if ok && fails(cand) {
			cur = cand
		}
	}
	return cur
}

// removeNode drops v (and its incident edges and events), relabeling ids
// above v down by one. ok is false if nothing remains.
func removeNode(in FaultInput, v int) (FaultInput, bool) {
	n := in.G.N()
	if n <= 2 {
		return in, false
	}
	relabel := func(u int) int {
		if u > v {
			return u - 1
		}
		return u
	}
	out := FaultInput{G: graph.New(n-1, in.G.Directed()), H: in.H}
	for _, e := range in.G.Edges() {
		if e.From == v || e.To == v {
			continue
		}
		out.G.MustAddEdge(relabel(e.From), relabel(e.To), e.W)
	}
	for _, s := range in.Sources {
		if s == v {
			continue
		}
		out.Sources = append(out.Sources, relabel(s))
	}
	if len(out.Sources) == 0 {
		return in, false
	}
	for _, ev := range in.Events {
		if ev.From == v || ev.To == v {
			continue
		}
		ev.From, ev.To = relabel(ev.From), relabel(ev.To)
		out.Events = append(out.Events, ev)
	}
	return out, true
}

func shrinkEdges(cur FaultInput, fails ShrinkCheck) FaultInput {
	for i := cur.G.M() - 1; i >= 0; i-- {
		edges := cur.G.Edges()
		if i >= len(edges) {
			continue
		}
		cand := cur.Clone()
		cand.G = graph.New(cur.G.N(), cur.G.Directed())
		for j, e := range edges {
			if j == i {
				continue
			}
			cand.G.MustAddEdge(e.From, e.To, e.W)
		}
		if fails(cand) {
			cur = cand
		}
	}
	return cur
}

func shrinkSources(cur FaultInput, fails ShrinkCheck) FaultInput {
	for i := len(cur.Sources) - 1; i >= 0 && len(cur.Sources) > 1; i-- {
		cand := cur.Clone()
		cand.Sources = append(cand.Sources[:i], cand.Sources[i+1:]...)
		if fails(cand) {
			cur = cand
		}
	}
	return cur
}

// shrinkMagnitudes lowers edge weights (toward 0) and event delay args
// (toward 1), greedily per element.
func shrinkMagnitudes(cur FaultInput, fails ShrinkCheck) FaultInput {
	for i, e := range cur.G.Edges() {
		for _, w := range []int64{0, 1, e.W / 2} {
			if w >= e.W {
				continue
			}
			cand := cur.Clone()
			cand.G = reweight(cur.G, i, w)
			if fails(cand) {
				cur = cand
				break
			}
		}
	}
	for i := range cur.Events {
		ev := cur.Events[i]
		if ev.Arg <= 1 {
			continue
		}
		for _, a := range []int{1, ev.Arg / 2} {
			if a >= ev.Arg {
				continue
			}
			cand := cur.Clone()
			cand.Events[i].Arg = a
			if fails(cand) {
				cur = cand
				break
			}
		}
	}
	return cur
}

// reweight rebuilds g with edge index i set to weight w.
func reweight(g *graph.Graph, i int, w int64) *graph.Graph {
	out := graph.New(g.N(), g.Directed())
	for j, e := range g.Edges() {
		if j == i {
			out.MustAddEdge(e.From, e.To, w)
		} else {
			out.MustAddEdge(e.From, e.To, e.W)
		}
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// SortEvents orders a fault script canonically (round, from, to, kind) so
// dumped fixtures are stable across shrink runs.
func SortEvents(evs []faults.Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
}
