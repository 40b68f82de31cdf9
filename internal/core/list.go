package core

import (
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/key"
)

// entry is one element Z of list_v (paper Table II): a path record
// (κ, d, l, x) with κ = d·γ + l represented implicitly by (d, l) and
// compared exactly through key.Gamma. Z.flag-d* is not stored: it is
// List.isSP. The fields are ordered to fill Go's 48-byte size class.
type entry struct {
	d, l   int64 // weighted distance and hop length of the path
	srcIdx int   // index of source x in Opts.Sources
	idx    int   // current position in the list (0-based; pos = idx+1)
	ceilK  int64 // cached ⌈κ⌉ = ⌈d·γ⌉ + l

	heapRefs int32 // live sendItems pointing here; recycling waits for 0
	needSend bool  // scheduled but not yet sent
	dead     bool  // removed from the list (heap entries are lazy)
}

// less is the total list order (κ, d, x): keys ascending, ties by distance,
// then by source label (paper Sec. II-A: "ordered by key value κ, with ties
// first resolved by the value of d, and then by the label of the source
// vertex").
func (z *entry) less(o *entry, g key.Gamma, sources []int) bool {
	if c := g.Cmp(z.d, z.l, o.d, o.l); c != 0 {
		return c < 0
	}
	if z.d != o.d {
		return z.d < o.d
	}
	return sources[z.srcIdx] < sources[o.srcIdx]
}

// equalKey reports whether two entries occupy the same position in the
// total order: identical (d, l, x) (κ is a function of d and l).
func (z *entry) equalKey(o *entry) bool {
	return z.d == o.d && z.l == o.l && z.srcIdx == o.srcIdx
}

// sendItem is a lazy heap item: the entry may have moved (schedule grew) or
// died since it was pushed.
type sendItem struct {
	time int64
	seq  int64
	e    *entry
}

type sendHeap []sendItem

func (h sendHeap) Len() int { return len(h) }
func (h sendHeap) Less(i, j int) bool {
	return h[i].time < h[j].time || (h[i].time == h[j].time && h[i].seq < h[j].seq)
}
func (h sendHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// The sift code below is container/heap's algorithm verbatim on the
// concrete type, for two reasons: the stdlib API boxes every pushed
// sendItem into an interface{} (a heap allocation per schedule() on the
// engine's zero-alloc round path), and the heap ARRAY — not just the pop
// order — is serialized by State, so the element movements must
// match the historical ones exactly for checkpoint byte-compatibility.
func (h sendHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func (h sendHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.Less(j2, j) {
			j = j2
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
}

func (h *sendHeap) push(it sendItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *sendHeap) popMin() sendItem {
	old := *h
	n := len(old) - 1
	old.Swap(0, n)
	old.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

// best is the node's current shortest-path record d*_v[x] with the Step 9
// tie-break state (d, then l, then parent ID).
type best struct {
	d, l   int64
	parent int
	e      *entry // the entry carrying flag-d*, nil until first reached
}

// isSP reports Z.flag-d*: whether z is the entry of its source's
// shortest-path record.
func (pl *List) isSP(z *entry) bool { return pl.bests[z.srcIdx].e == z }

// List is list_v of Algorithm 1: one node's entries in (κ, d, x) order
// with the ⌈κ⌉+pos send schedule, the per-source sets, the shortest-path
// records and the lazy send heap. It is the one implementation of the
// pipelined list: this package's node and every other (h,k)-SSP-shaped
// protocol — internal/scaling's bit phases — hold one, drive it through
// the exported methods and supply only their own message format and edge
// costs. Entries are reachable from this file and from literal.go only
// (the paper's literal receive rules, which RunLiteral alone installs).
//
// Use: Init once, Seed the origin entries, then per round Offer every
// extended incoming entry and call NextSend exactly once, last.
type List struct {
	id      int
	gamma   key.Gamma
	sources []int
	// trace is Opts.Trace. Hot-path callers must check it for nil BEFORE
	// building the call: passing integers through the variadic
	// ...interface{} boxes them onto the heap at the call site even when
	// the sink is nil, which would break the zero-allocation guards.
	trace func(format string, args ...interface{})

	list    []*entry
	perSrc  [][]*entry
	bests   []best
	pending int // alive entries with needSend
	h       sendHeap
	seq     int64
	cur     int // the round NextSend last ran for

	Counters

	// Steady-state allocation control (see the AllocsPerRun guards in
	// internal/congest): dropped and retired entries go through a freelist,
	// and the per-round transient slices are scratch reused across rounds.
	freeEnts []*entry
	victims  []*entry
	requeue  []sendItem
}

// Counters is the list's diagnostics, reported through core.Result.
type Counters struct {
	Late, Collisions  int // see Result.LateSends, Collisions
	MaxList, MaxPer   int
	Inserts, Evicts   int64
	NuDrops, DupDrops int64 // entries refused: dominated / ν-gated, exact duplicates (literal rules only)
}

// Send is the entry NextSend selected for broadcast this round.
type Send struct {
	SrcIdx int   // index into the sources given to Init
	D, L   int64 // weighted distance and hop length
	Nu     int32 // Z.ν: entries for the source at or below Z
}

// Init prepares an empty list for node id over the given sources. A
// positive prealloc pre-sizes the entry storage for that many concurrent
// entries: the freelist is stocked with a contiguous block and the list,
// per-source sets, send heap and scratch slices get matching capacity.
func (pl *List) Init(id int, gamma key.Gamma, sources []int, prealloc int) {
	pl.id, pl.gamma, pl.sources = id, gamma, sources
	k := len(sources)
	pl.bests = make([]best, k)
	pl.perSrc = make([][]*entry, k)
	if p := prealloc; p > 0 {
		block := make([]entry, p)
		pl.freeEnts = make([]*entry, p, 2*p)
		for i := range block {
			pl.freeEnts[i] = &block[i]
		}
		pl.list = make([]*entry, 0, p)
		pl.h = make(sendHeap, 0, 2*p)
		pl.victims = make([]*entry, 0, p)
		pl.requeue = make([]sendItem, 0, p)
		for i := range pl.perSrc {
			pl.perSrc[i] = make([]*entry, 0, p)
		}
	}
	for i := range pl.bests {
		pl.bests[i] = best{d: graph.Inf, l: -1, parent: -1}
	}
}

// Seed installs the origin entry (d, 0) for source index i: an already
// known distance with zero hops, the shortest-path record until beaten.
func (pl *List) Seed(i int, d int64) {
	z := &entry{d: d, l: 0, srcIdx: i, needSend: true}
	z.ceilK = pl.gamma.CeilKappa(d, 0)
	pl.bests[i] = best{d: d, l: 0, parent: pl.id, e: z}
	pl.insertAt(z, pl.searchPos(z))
	pl.schedule(z)
}

// BestDist returns the current shortest distance for source index i
// (graph.Inf while none is known).
func (pl *List) BestDist(i int) int64 { return pl.bests[i].d }

// Best returns the shortest-path record for source index i: distance, hop
// count and parent (graph.Inf, -1, -1 while none is known).
func (pl *List) Best(i int) (d, l int64, parent int) {
	b := &pl.bests[i]
	return b.d, b.l, b.parent
}

// PerSource returns how many entries the list holds for source index i.
func (pl *List) PerSource(i int) int { return len(pl.perSrc[i]) }

// Round returns the last round NextSend ran for.
func (pl *List) Round() int { return pl.cur }

// newEntry returns a zeroed entry, recycled when one is available.
func (pl *List) newEntry() *entry {
	if n := len(pl.freeEnts); n > 0 {
		z := pl.freeEnts[n-1]
		pl.freeEnts[n-1] = nil
		pl.freeEnts = pl.freeEnts[:n-1]
		*z = entry{}
		return z
	}
	return &entry{}
}

// recycle returns an entry that never entered the list (a receive-path
// drop) straight to the freelist.
func (pl *List) recycle(z *entry) {
	pl.freeEnts = append(pl.freeEnts, z)
}

// maybeFree recycles a dead entry once nothing references it: the lazy
// send heap has dropped its last item for it (heapRefs 0) and it is not
// a best record's carrier. Callers invoke it after marking dead and
// after every heapRefs decrement.
func (pl *List) maybeFree(z *entry) {
	if z.dead && z.heapRefs == 0 && pl.bests[z.srcIdx].e != z {
		pl.freeEnts = append(pl.freeEnts, z)
	}
}

// schedule pushes an entry's current send time onto the lazy heap.
func (pl *List) schedule(z *entry) {
	pl.seq++
	z.heapRefs++
	pl.h.push(sendItem{time: z.ceilK + int64(z.idx) + 1, seq: pl.seq, e: z})
}

// insertAt places z at position p, shifting the tail and fixing indices.
func (pl *List) insertAt(z *entry, p int) {
	pl.list = append(pl.list, nil)
	copy(pl.list[p+1:], pl.list[p:])
	pl.list[p] = z
	for i := p; i < len(pl.list); i++ {
		pl.list[i].idx = i
	}
	pl.perSrc[z.srcIdx] = append(pl.perSrc[z.srcIdx], z)
	if z.needSend {
		pl.pending++
	}
	pl.Inserts++
	if len(pl.list) > pl.MaxList {
		pl.MaxList = len(pl.list)
	}
	if c := len(pl.perSrc[z.srcIdx]); c > pl.MaxPer {
		pl.MaxPer = c
	}
}

// removeEntry deletes z from the list and per-source set and marks it dead.
func (pl *List) removeEntry(z *entry) {
	p := z.idx
	pl.list = append(pl.list[:p], pl.list[p+1:]...)
	for i := p; i < len(pl.list); i++ {
		pl.list[i].idx = i
	}
	ps := pl.perSrc[z.srcIdx]
	for i, e := range ps {
		if e == z {
			ps[i] = ps[len(ps)-1]
			pl.perSrc[z.srcIdx] = ps[:len(ps)-1]
			break
		}
	}
	if z.needSend && !z.dead {
		pl.pending--
	}
	z.dead = true
	pl.Evicts++
	pl.maybeFree(z)
}

// searchPos returns the position at which z belongs in the list order.
func (pl *List) searchPos(z *entry) int {
	return sort.Search(len(pl.list), func(i int) bool {
		return z.less(pl.list[i], pl.gamma, pl.sources) || z.equalKey(pl.list[i])
	})
}

// countBefore returns the number of entries for z's source that precede z
// in the list order (z need not be in the list).
func (pl *List) countBefore(z *entry) int {
	c := 0
	for _, e := range pl.perSrc[z.srcIdx] {
		if e.less(z, pl.gamma, pl.sources) {
			c++
		}
	}
	return c
}

// nu computes Z.ν: entries for z's source at or below z (inclusive),
// with z on the list.
func (pl *List) nu(z *entry) int { return pl.countBefore(z) + 1 }

// Offer processes an incoming entry (d, l) for source index i, received
// from neighbor from in round r, under the Pareto discipline: keep exactly
// the per-source Pareto frontier of (d, l) pairs. A dominated entry is
// useless for every suffix and hop budget (its extensions are dominated
// too), so dropping it — and only it — cannot lose any h-hop shortest path.
// Callers prune entries beyond the hop bound or the Δ promise first.
func (pl *List) Offer(i int, d, l int64, from, r int) {
	b := &pl.bests[i]
	if d == b.d && l == b.l {
		// Same record as the current shortest-path entry: at most the
		// tie-break parent (smallest ID, Step 9) improves. The wire content
		// would be identical, so no new entry is needed.
		if from < b.parent {
			b.parent = from
		}
		return
	}
	for _, e := range pl.perSrc[i] {
		if e.d <= d && e.l <= l {
			pl.NuDrops++
			if pl.trace != nil {
				pl.trace("r%d v%d PARETODROP (d=%d l=%d src=%d)", r, pl.id, d, l, pl.sources[i])
			}
			return
		}
	}
	z := pl.newEntry()
	z.d, z.l, z.srcIdx, z.needSend = d, l, i, true
	z.ceilK = pl.gamma.CeilKappa(d, l)
	if d < b.d || (d == b.d && l < b.l) {
		*b = best{d: d, l: l, parent: from, e: z}
	}
	pl.insertAt(z, pl.searchPos(z))
	if pl.trace != nil {
		pl.trace("r%d v%d INSERT pareto (d=%d l=%d src=%d) sp=%v", r, pl.id, d, l, pl.sources[i], pl.isSP(z))
	}
	// Remove the entries z dominates; they are strictly above z in the
	// list order (κ(z) ≤ κ(e) with a strict component).
	pl.victims = pl.victims[:0]
	for _, e := range pl.perSrc[i] {
		if e != z && e.d >= d && e.l >= l {
			pl.victims = append(pl.victims, e)
		}
	}
	for _, e := range pl.victims {
		if pl.trace != nil {
			pl.trace("v%d DOMINATED-REMOVE (d=%d l=%d src=%d) sent=%v", pl.id, e.d, e.l, pl.sources[i], !e.needSend)
		}
		pl.removeEntry(e)
	}
	pl.schedule(z)
}

// NextSend pops due heap items lazily and selects at most one entry to
// send in round r (Steps 1–2), marking it sent; the caller broadcasts it
// in its own wire format.
func (pl *List) NextSend(r int) (Send, bool) {
	pl.cur = r
	var candidate *entry
	var candSched int64
	requeue := pl.requeue[:0] // collected due-but-not-sent items to re-push
	for pl.h.Len() > 0 && pl.h[0].time <= int64(r) {
		it := pl.h.popMin()
		z := it.e
		z.heapRefs--
		if z.dead || !z.needSend {
			pl.maybeFree(z)
			continue
		}
		sched := z.ceilK + int64(z.idx) + 1
		if sched > int64(r) {
			pl.schedule(z) // schedule moved into the future; re-arm
			continue
		}
		if candidate == nil {
			candidate, candSched = z, sched
			continue
		}
		// A second due entry this round. It is a schedule collision in the
		// paper's sense only when both entries hit their equality moment in
		// this exact round (backlogged overdue entries are counted as late
		// sends instead).
		if sched == int64(r) && candSched == int64(r) {
			pl.Collisions++
		}
		other := z
		// Earliest schedule wins; ties by list order.
		if sched < candSched || (sched == candSched && z.idx < candidate.idx) {
			other, candidate, candSched = candidate, z, sched
		}
		pl.seq++
		requeue = append(requeue, sendItem{time: int64(r) + 1, seq: pl.seq, e: other})
	}
	for _, it := range requeue {
		it.e.heapRefs++
		pl.h.push(it)
	}
	pl.requeue = requeue[:0]
	if candidate == nil {
		return Send{}, false
	}
	if candSched < int64(r) {
		pl.Late++
	}
	z := candidate
	z.needSend = false
	pl.pending--
	s := Send{SrcIdx: z.srcIdx, D: z.d, L: z.l, Nu: int32(pl.nu(z))}
	if pl.trace != nil {
		pl.trace("r%d v%d SEND (d=%d l=%d src=%d) sp=%v nu=%d sched=%d", r, pl.id, z.d, z.l, pl.sources[z.srcIdx], pl.isSP(z), s.Nu, candSched)
	}
	return s, true
}

// Quiescent reports whether no entry can be sent without a further Offer.
func (pl *List) Quiescent() bool { return pl.pending == 0 }

// NextWake is the list's half of congest.Node.NextWake: the round its earliest
// heap item comes due, or congest.WakeOnReceive. Sends, late sends and
// requeued collisions are all gated on heap-pop time, so the heap top is
// exact, and waking on a stale item (dead or re-armed entry) is harmless.
func (pl *List) NextWake() int {
	if pl.h.Len() > 0 {
		return int(pl.h[0].time)
	}
	return congest.WakeOnReceive
}

// State walks the list's round-crossing state; a node holding a List
// calls it from its own congest.Stateful method: the entries in order, the
// per-source sets in stored order (removal uses swap-deletion, so stored
// order influences future stored order and must round-trip for bit-exact
// resume), the shortest-path records and the lazy send heap in heap-array
// order. Entry pointers travel as list indices (-1: none, or dead). The
// cached ⌈κ⌉ is rebuilt, not stored, and so is flag-d* (isSP reads it off
// the best records). The round is not stored: only NextWake reads it,
// after NextSend has set it. Counters are not included (core's node
// stores them in its historical layout). Decoding discards whatever Init
// and Seed built.
func (pl *List) State(c *congest.Codec) error {
	dec := c.Decoding()
	c.Int64(&pl.seq)
	c.Int(&pl.pending)

	for i := range congest.Slice(c, &pl.list) {
		if dec {
			pl.list[i] = &entry{}
		}
		z := pl.list[i]
		c.Int64(&z.d)
		c.Int64(&z.l)
		c.Int(&z.srcIdx)
		c.Bool(&z.needSend)
	}
	if err := c.Err(); err != nil {
		return err
	}
	if dec {
		for i, z := range pl.list {
			if z.srcIdx < 0 || z.srcIdx >= len(pl.sources) {
				return fmt.Errorf("core: entry source index %d out of range", z.srcIdx)
			}
			if z.d < 0 || z.l < 0 {
				return fmt.Errorf("core: entry (d=%d, l=%d) is negative", z.d, z.l)
			}
			z.idx = i
			z.ceilK = pl.gamma.CeilKappa(z.d, z.l)
		}
	}

	// at resolves a decoded list index; ref walks an entry pointer as its
	// index, decoding any negative index to none.
	at := func(i int) *entry {
		if i < 0 || i >= len(pl.list) {
			c.Fail(fmt.Errorf("core: entry index %d out of range", i))
			return nil
		}
		return pl.list[i]
	}
	ref := func(zp **entry, none *entry) {
		i := -1
		if z := *zp; z != nil && !z.dead {
			i = z.idx
		}
		c.Int(&i)
		if dec && c.Err() == nil {
			*zp = none
			if i >= 0 {
				*zp = at(i)
			}
		}
	}

	k := len(pl.perSrc)
	c.Len(&k)
	if dec && c.Err() == nil {
		if k != len(pl.sources) {
			return fmt.Errorf("core: snapshot has %d sources, run has %d", k, len(pl.sources))
		}
		pl.perSrc = make([][]*entry, k)
	}
	for i, ps := range pl.perSrc {
		idxs := make([]int, len(ps))
		for j, z := range ps {
			idxs[j] = z.idx
		}
		c.Ints(&idxs)
		if dec {
			pl.perSrc[i] = make([]*entry, len(idxs))
			for j, ix := range idxs {
				pl.perSrc[i][j] = at(ix)
			}
		}
		if err := c.Err(); err != nil {
			return err
		}
	}

	nb := len(pl.bests)
	c.Len(&nb)
	if dec && c.Err() == nil {
		if nb != k {
			return fmt.Errorf("core: snapshot has %d best records, want %d", nb, k)
		}
		pl.bests = make([]best, k)
	}
	for i := range pl.bests {
		b := &pl.bests[i]
		c.Int64(&b.d)
		c.Int64(&b.l)
		c.Int(&b.parent)
		ref(&b.e, nil)
	}

	// Lazy heap, in heap-array order: restoring the array verbatim restores
	// the identical heap. Items whose entry has died keep a -1 index and are
	// re-attached to a shared dead sentinel on decode, so the lazy pop-and-
	// skip behaviour replays exactly.
	var dead *entry
	if dec {
		dead = &entry{dead: true, idx: -1}
	}
	for i := range congest.Slice(c, &pl.h) {
		it := &pl.h[i]
		c.Int64(&it.time)
		c.Int64(&it.seq)
		ref(&it.e, dead)
		if dec && it.e != nil {
			it.e.heapRefs++
		}
	}
	return c.Err()
}
