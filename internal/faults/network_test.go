package faults

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/congest"
)

// word is a one-word test payload.
type word int

func (word) Words() int { return 1 }

// testBatch builds a deterministic batch for round r over an n-node
// all-pairs link set: node u sends to node (u+1+r)%n and (u+2+r)%n.
func testBatch(r, n int) []congest.Message {
	var b []congest.Message
	for u := 0; u < n; u++ {
		seen := map[int]bool{}
		for _, d := range []int{1 + r%3, 2 + r%2} {
			v := (u + d) % n
			if v == u || seen[v] { // one message per link direction per round
				continue
			}
			seen[v] = true
			b = append(b, congest.Message{From: u, To: v, Payload: word(100*r + 10*u + v)})
		}
	}
	return b
}

// canonical returns the batch in the delivery-order invariant's order:
// destination ascending, then sender ascending.
func canonical(batch []congest.Message) []congest.Message {
	out := append([]congest.Message(nil), batch...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.To < b.To || (a.To == b.To && a.From < b.From)
	})
	return out
}

// TestBarrierExactDelivery is the shim's core contract: under every fault
// plan, each round's batch arrives complete, exactly once, in canonical
// order, in the very next logical round.
func TestBarrierExactDelivery(t *testing.T) {
	plans := []Plan{
		{},                     // perfect network
		{Seed: 1, MaxDelay: 4}, // delay only
		{Seed: 2, Drop: 0.2},   // drops + retransmit
		{Seed: 3, Dup: 0.5},    // duplication
		All(5),                 // everything
		{Seed: 6, MaxDelay: 64, Drop: 0.6, Dup: 0.9}, // heavy
	}
	for _, p := range plans {
		t.Run(p.String(), func(t *testing.T) {
			nw := New(p)
			const n, rounds = 7, 12
			nw.Reset(n)
			for r := 0; r < rounds; r++ {
				batch := testBatch(r, n)
				if err := nw.Send(r, batch); err != nil {
					t.Fatalf("round %d: Send: %v", r, err)
				}
				if due := nw.NextDue(r + 1); due != r+1 {
					t.Fatalf("round %d: NextDue(%d) = %d, want %d", r, r+1, due, r+1)
				}
				if nw.Pending() != len(batch) {
					t.Fatalf("round %d: Pending = %d, want %d", r, nw.Pending(), len(batch))
				}
				got := nw.Collect(r + 1)
				if want := canonical(batch); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: Collect = %v, want %v", r, got, want)
				}
				if nw.Pending() != 0 {
					t.Fatalf("round %d: Pending = %d after Collect, want 0", r, nw.Pending())
				}
			}
			phys := nw.Phys()
			want := int64(0)
			for r := 0; r < rounds; r++ {
				want += int64(len(testBatch(r, n)))
			}
			if phys.Delivered != want {
				t.Errorf("Delivered = %d, want %d", phys.Delivered, want)
			}
			if p == (Plan{}) {
				if phys.Retransmits != 0 || phys.DataDrops != 0 || phys.DupDeliveries != 0 {
					t.Errorf("perfect plan did physical work: %+v", phys)
				}
			}
			if p.Drop > 0 && phys.Retransmits == 0 {
				t.Errorf("plan %v dropped nothing worth retransmitting: %+v", p, phys)
			}
		})
	}
}

// TestBarrierRunsIndependentOfBatchOrder: the reassembled inbox order must
// come from sequence numbers, not from the order Send saw the batch in.
func TestBarrierIndependentOfBatchOrder(t *testing.T) {
	p := All(17)
	run := func(perm func([]congest.Message)) []congest.Message {
		nw := New(p)
		nw.Reset(5)
		batch := testBatch(0, 5)
		perm(batch)
		if err := nw.Send(0, batch); err != nil {
			t.Fatal(err)
		}
		return nw.Collect(1)
	}
	a := run(func([]congest.Message) {})
	b := run(func(b []congest.Message) {
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
	})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("delivery order depends on send order:\n%v\nvs\n%v", a, b)
	}
}

// TestBarrierUnsatisfiable: a drop rate the retransmit budget cannot beat
// surfaces as an error, not a hang.
func TestBarrierUnsatisfiable(t *testing.T) {
	nw := New(Plan{Seed: 9, Drop: 0.9999999999})
	nw.Reset(3)
	err := nw.Send(0, []congest.Message{{From: 0, To: 1, Payload: word(1)}})
	if err == nil {
		t.Fatal("Send succeeded under a ~certain-drop plan, want barrier-cap error")
	}
}

// TestResetRetainsPhys: per-run state clears, cumulative stats survive
// (multi-phase algorithms run many engines).
func TestResetRetainsPhys(t *testing.T) {
	nw := New(Plan{Seed: 3, Drop: 0.3})
	nw.Reset(4)
	if err := nw.Send(0, testBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	nw.Collect(1)
	before := nw.Phys()
	if before.DataSends == 0 {
		t.Fatal("no physical sends recorded")
	}
	nw.Reset(4)
	if nw.Pending() != 0 || nw.NextDue(0) != 0 {
		t.Error("Reset left per-run delivery state behind")
	}
	if after := nw.Phys(); !reflect.DeepEqual(after, before) {
		t.Errorf("Reset lost cumulative stats: %+v vs %+v", after, before)
	}
	if err := nw.Send(0, testBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	if after := nw.Phys(); after.DataSends <= before.DataSends {
		t.Errorf("stats did not accumulate across runs: %+v", after)
	}
}

type sinkRec struct {
	rounds []int
	total  PhysStats
}

func (s *sinkRec) PhysRound(r int, d PhysStats) {
	s.rounds = append(s.rounds, r)
	s.total.Add(d)
}

// TestSinkDeltasSumToPhys: the per-round deltas handed to the Sink must
// sum to the cumulative Phys figures.
func TestSinkDeltasSumToPhys(t *testing.T) {
	nw := New(All(31))
	rec := &sinkRec{}
	nw.Sink = rec
	nw.Reset(5)
	for r := 0; r < 6; r++ {
		if err := nw.Send(r, testBatch(r, 5)); err != nil {
			t.Fatal(err)
		}
		nw.Collect(r + 1)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(rec.rounds, want) {
		t.Errorf("sink rounds = %v, want %v", rec.rounds, want)
	}
	if !reflect.DeepEqual(rec.total, nw.Phys()) {
		t.Errorf("sink sum %+v != Phys %+v", rec.total, nw.Phys())
	}
}

// TestDeterminismAcrossRuns: the whole simulation is a pure function of
// (plan, batches) — byte-identical physical stats on repeat runs.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (PhysStats, string) {
		nw := New(All(77))
		nw.Reset(8)
		var trace string
		for r := 0; r < 10; r++ {
			if err := nw.Send(r, testBatch(r, 8)); err != nil {
				t.Fatal(err)
			}
			trace += fmt.Sprint(nw.Collect(r + 1))
		}
		return nw.Phys(), trace
	}
	s1, t1 := run()
	s2, t2 := run()
	if !reflect.DeepEqual(s1, s2) || t1 != t2 {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", s1, s2)
	}
}

// TestDisarmCrashes: the disarm bookkeeping a checkpoint header carries
// restores into a fresh Network. A crash that fired there neither fires
// again nor bounds the fast-forward; the next armed one still does.
func TestDisarmCrashes(t *testing.T) {
	script := []Event{{Round: 4, From: 1, Kind: CrashEvent, Arg: 2}, {Round: 9, From: 0, Kind: CrashEvent}}
	nw := &Network{Script: script}
	if v, restart, ok := nw.CrashDue(4); !ok || v != 1 || restart != 6 {
		t.Fatalf("CrashDue(4) = %d, %d, %v; want node 1 back at round 6", v, restart, ok)
	}
	fresh := &Network{Script: script}
	fresh.DisarmCrashes(nw.DisarmedCrashes())
	if _, _, ok := fresh.CrashDue(4); ok {
		t.Error("a disarmed crash fired again after the restore")
	}
	if due := fresh.NextCrash(0); due != 9 {
		t.Errorf("NextCrash(0) = %d after the restore, want 9", due)
	}
	if got := fresh.DisarmedCrashes(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("DisarmedCrashes = %v, want [0]", got)
	}
}

// TestStateRefusesUnsafeSnapshots: a snapshot is taken only at a round
// barrier, and decodes only into a network its links fit.
func TestStateRefusesUnsafeSnapshots(t *testing.T) {
	stuck := New(Plan{Seed: 9, Drop: 0.9999999999})
	stuck.Reset(3)
	if err := stuck.Send(0, []congest.Message{{From: 0, To: 1, Payload: word(1)}}); err == nil {
		t.Fatal("Send succeeded under a ~certain-drop plan")
	}
	if _, err := congest.Marshal(stuck); err == nil || !strings.Contains(err.Error(), "mid-barrier") {
		t.Errorf("snapshot of an unacknowledged window: err = %v, want a mid-barrier refusal", err)
	}

	nw := New(Plan{})
	nw.Reset(5)
	if err := nw.Send(0, testBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	nw.Collect(1)
	nw.n = 3 // a snapshot whose links name nodes past its node count
	blob, err := congest.Marshal(nw)
	if err != nil {
		t.Fatal(err)
	}
	small := New(Plan{})
	small.Reset(3)
	if err := congest.Unmarshal(blob, small); err == nil || !strings.Contains(err.Error(), "outside n=3") {
		t.Errorf("decoding links past n: err = %v, want an outside-n refusal", err)
	}
}
