// Checkpoint support: the pipelined (h,k)-SSP node's side of the
// congest.Stateful contract. List.EncodeState captures everything round-
// crossing in the list — the entries in order, the per-source sets in
// stored order (removal uses swap-deletion, so stored order influences
// future stored order and must round-trip for bit-exact resume), the
// shortest-path records and the lazy send heap in heap-array order (a heap
// array restored verbatim is the same heap); the node appends the
// diagnostics counters and E-CONV snapshots. Derived fields (srcOf,
// inFrom/inWt, gamma, cached ⌈κ⌉) are rebuilt, not stored.
package core

import (
	"fmt"
	"sort"

	"repro/internal/congest"
)

func init() {
	// The codec name and field bytes predate the pooled *wire payload:
	// keeping both identical keeps historical checkpoint files loading.
	congest.RegisterPayloadCodec("core.wire", &wire{},
		func(enc *congest.StateEncoder, p congest.Payload) {
			m := p.(*wire)
			enc.Int64(m.d)
			enc.Int64(m.l)
			enc.Int(m.src)
			enc.Bool(m.sp)
			enc.Int64(int64(m.nu))
		},
		func(dec *congest.StateDecoder) (congest.Payload, error) {
			m := &wire{d: dec.Int64(), l: dec.Int64(), src: dec.Int(), sp: dec.Bool(), nu: int32(dec.Int64())}
			return m, dec.Err()
		})
}

// EncodeState writes the list's round-crossing state; a node holding a
// List calls it from its own congest.Stateful method. The diagnostics
// counters are not included (core's node stores them in its historical
// layout).
func (pl *List) EncodeState(enc *congest.StateEncoder) {
	enc.Int(pl.cur)
	enc.Int64(pl.seq)
	enc.Int(pl.pending)

	enc.Int(len(pl.list))
	for _, z := range pl.list {
		enc.Int64(z.d)
		enc.Int64(z.l)
		enc.Int(z.srcIdx)
		enc.Int(z.parent)
		enc.Bool(z.flagSP)
		enc.Bool(z.needSend)
	}

	enc.Int(len(pl.perSrc))
	for _, ps := range pl.perSrc {
		idxs := make([]int, len(ps))
		for i, z := range ps {
			idxs[i] = z.idx
		}
		enc.Ints(idxs)
	}

	enc.Int(len(pl.bests))
	for i := range pl.bests {
		b := &pl.bests[i]
		enc.Int64(b.d)
		enc.Int64(b.l)
		enc.Int(b.parent)
		ei := -1
		if b.e != nil && !b.e.dead {
			ei = b.e.idx
		}
		enc.Int(ei)
	}

	// Lazy heap, in heap-array order: restoring the array verbatim restores
	// the identical heap. Items whose entry has died keep a -1 index and are
	// re-attached to a shared dead sentinel on decode, so the lazy pop-and-
	// skip behaviour replays exactly.
	enc.Int(pl.h.Len())
	for _, it := range pl.h {
		enc.Int64(it.time)
		enc.Int64(it.seq)
		ei := -1
		if !it.e.dead {
			ei = it.e.idx
		}
		enc.Int(ei)
	}
}

// EncodeState implements congest.Stateful.
func (nd *node) EncodeState(enc *congest.StateEncoder) {
	pl := &nd.pl
	pl.EncodeState(enc)

	enc.Int(pl.late)
	enc.Int(pl.collisions)
	enc.Int(pl.missed)
	enc.Int(nd.inv1)
	enc.Int(nd.inv2)
	enc.Int(pl.maxList)
	enc.Int(pl.maxPer)
	enc.Int64(pl.inserts)
	enc.Int64(pl.evicts)
	enc.Int64(pl.nuDrops)
	enc.Int64(nd.dupDrops)

	enc.Int(len(nd.snaps))
	rounds := make([]int, 0, len(nd.snaps))
	for r := range nd.snaps {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		enc.Int(r)
		enc.Int64s(nd.snaps[r])
	}
}

// DecodeState discards whatever Init and Seed built and reconstructs the
// list from the snapshot.
func (pl *List) DecodeState(dec *congest.StateDecoder) error {
	pl.cur = dec.Int()
	pl.seq = dec.Int64()
	pl.pending = dec.Int()

	nl := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	list := make([]*entry, nl)
	for i := range list {
		z := &entry{d: dec.Int64(), l: dec.Int64(), srcIdx: dec.Int(), parent: dec.Int(), flagSP: dec.Bool(), needSend: dec.Bool(), idx: i}
		if err := dec.Err(); err != nil {
			return err
		}
		if z.srcIdx < 0 || z.srcIdx >= len(pl.sources) {
			return fmt.Errorf("core: entry source index %d out of range", z.srcIdx)
		}
		z.ceilK = pl.gamma.CeilKappa(z.d, z.l)
		list[i] = z
	}
	pl.list = list

	at := func(i int) (*entry, error) {
		if i < 0 || i >= len(list) {
			return nil, fmt.Errorf("core: entry index %d out of range", i)
		}
		return list[i], nil
	}

	k := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if k != len(pl.sources) {
		return fmt.Errorf("core: snapshot has %d sources, run has %d", k, len(pl.sources))
	}
	pl.perSrc = make([][]*entry, k)
	for i := 0; i < k; i++ {
		idxs := dec.Ints()
		if err := dec.Err(); err != nil {
			return err
		}
		ps := make([]*entry, len(idxs))
		for j, ix := range idxs {
			z, err := at(ix)
			if err != nil {
				return err
			}
			ps[j] = z
		}
		pl.perSrc[i] = ps
	}

	nb := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nb != k {
		return fmt.Errorf("core: snapshot has %d best records, want %d", nb, k)
	}
	pl.bests = make([]best, k)
	for i := range pl.bests {
		b := best{d: dec.Int64(), l: dec.Int64(), parent: dec.Int()}
		ei := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		if ei >= 0 {
			z, err := at(ei)
			if err != nil {
				return err
			}
			b.e = z
		}
		pl.bests[i] = b
	}

	nh := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	var deadSentinel *entry
	pl.h = make(sendHeap, 0, nh)
	for i := 0; i < nh; i++ {
		it := sendItem{time: dec.Int64(), seq: dec.Int64()}
		ei := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		if ei >= 0 {
			z, err := at(ei)
			if err != nil {
				return err
			}
			it.e = z
		} else {
			if deadSentinel == nil {
				deadSentinel = &entry{dead: true, idx: -1}
			}
			it.e = deadSentinel
		}
		it.e.heapRefs++
		pl.h = append(pl.h, it)
	}
	return dec.Err()
}

// DecodeState implements congest.Stateful.
func (nd *node) DecodeState(dec *congest.StateDecoder) error {
	pl := &nd.pl
	if err := pl.DecodeState(dec); err != nil {
		return err
	}

	pl.late = dec.Int()
	pl.collisions = dec.Int()
	pl.missed = dec.Int()
	nd.inv1 = dec.Int()
	nd.inv2 = dec.Int()
	pl.maxList = dec.Int()
	pl.maxPer = dec.Int()
	pl.inserts = dec.Int64()
	pl.evicts = dec.Int64()
	pl.nuDrops = dec.Int64()
	nd.dupDrops = dec.Int64()

	ns := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	nd.snaps = nil
	if ns > 0 {
		nd.snaps = make(map[int][]int64, ns)
		for i := 0; i < ns; i++ {
			r := dec.Int()
			nd.snaps[r] = dec.Int64s()
		}
	}
	return dec.Err()
}
