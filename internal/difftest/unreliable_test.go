package difftest

import (
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/faults"
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

func TestUnreliableScriptedFaults(t *testing.T) {
	nw := &Unreliable{Script: []faults.Event{
		{Round: 0, From: 0, To: 1, Kind: faults.DropEvent},
		{Round: 0, From: 1, To: 2, Kind: faults.DelayEvent, Arg: 2},
		{Round: 0, From: 2, To: 0, Kind: faults.DupEvent},
	}}
	nw.Reset(3)
	batch := []congest.Message{
		{From: 0, To: 1, Payload: word(1)},
		{From: 1, To: 2, Payload: word(2)},
		{From: 2, To: 0, Payload: word(3)},
	}
	if err := nw.Send(0, batch); err != nil {
		t.Fatal(err)
	}
	if nw.Pending() != 3 {
		t.Errorf("Pending = %d, want 3: one delayed message and two copies of the duplicated one", nw.Pending())
	}
	// Round 1: the dropped message is gone, the delayed one absent, the
	// duplicated one arrives twice.
	got := nw.Collect(1)
	want := []congest.Message{
		{From: 2, To: 0, Payload: word(3)},
		{From: 2, To: 0, Payload: word(3)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round 1 inbox = %v, want %v", got, want)
	}
	// Round 3: the delayed message lands, and nothing is left.
	if due := nw.NextDue(2); due != 3 {
		t.Errorf("NextDue(2) = %d, want 3", due)
	}
	got = nw.Collect(3)
	want = []congest.Message{{From: 1, To: 2, Payload: word(2)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round 3 inbox = %v, want %v", got, want)
	}
	if nw.Pending() != 0 || nw.NextDue(0) != 0 {
		t.Errorf("Pending = %d, NextDue(0) = %d after every delivery; want 0, 0", nw.Pending(), nw.NextDue(0))
	}
	if rec := nw.Recorded(); len(rec) != 0 {
		t.Errorf("a scripted run recorded %v; only plan-drawn faults are recorded", rec)
	}
}

// TestUnreliableRecordedReplay: a probabilistic chaos run records its
// faults as Events, and replaying them as a Script reproduces the exact
// delivery schedule — the property Shrink is built on.
func TestUnreliableRecordedReplay(t *testing.T) {
	const n, rounds = 6, 8
	run := func(nw *Unreliable) map[int][]congest.Message {
		nw.Reset(n)
		out := map[int][]congest.Message{}
		for r := 0; r < rounds; r++ {
			if err := nw.Send(r, testBatch(r, n)); err != nil {
				t.Fatal(err)
			}
		}
		for r := 1; r <= rounds+faults.MaxMaxDelay; r++ {
			if msgs := nw.Collect(r); len(msgs) > 0 {
				out[r] = msgs
			}
		}
		if nw.Pending() != 0 {
			t.Fatalf("Pending = %d after draining", nw.Pending())
		}
		return out
	}
	chaos := &Unreliable{Plan: faults.All(23)}
	first := run(chaos)
	recorded := chaos.Recorded()
	if len(recorded) == 0 {
		t.Fatal("chaos run recorded no events")
	}

	second := run(&Unreliable{Script: recorded})
	if !reflect.DeepEqual(first, second) {
		t.Errorf("script replay diverged from recorded chaos run:\n%v\nvs\n%v", first, second)
	}
}
