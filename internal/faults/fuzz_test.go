package faults

import (
	"reflect"
	"testing"
)

// FuzzFaultPlan checks the plan codec's round-trip invariant promised in
// Parse's doc: every plan Parse accepts renders to a canonical string that
// parses back to the identical plan.
func FuzzFaultPlan(f *testing.F) {
	for _, s := range []string{
		"", "none", "all",
		"delay=4,drop=0.2,dup=0.1,seed=5",
		"drop=0.999", "delay=64", "seed=-3,reorder",
		"dup=1", " drop = 0.5 , delay = 2 ",
		"drop=1e-300", "delay=65", "drop=1", "drop=nan",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned invalid plan %+v: %v", s, p, err)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", p.String(), s, err)
		}
		if q != p {
			t.Fatalf("round trip changed the plan: %q -> %+v -> %q -> %+v", s, p, p.String(), q)
		}
	})
}

// FuzzFaultEvent checks the event codec from both ends: every event with a
// named kind survives String → ParseEvent unchanged, and arbitrary text
// either fails to parse or parses to an event that round-trips.
func FuzzFaultEvent(f *testing.F) {
	f.Add(7, 2, 5, 1, 3, "round=7 from=2 to=5 kind=delay arg=3")
	f.Add(0, 0, 0, 0, 0, "round=1 round=2 from=0 to=1 kind=drop")
	f.Add(-4, 9, 1, 3, -2, "kind=crash  from=1\tto=0 round=9")
	f.Fuzz(func(t *testing.T, round, from, to, kind, arg int, s string) {
		e := Event{Round: round, From: from, To: to, Kind: Kind(uint(kind) % uint(len(kindNames))), Arg: arg}
		if got, err := ParseEvent(e.String()); err != nil || got != e {
			t.Fatalf("ParseEvent(%q) = %+v, %v; want %+v", e.String(), got, err, e)
		}
		e, err := ParseEvent(s)
		if err != nil {
			return
		}
		if got, err := ParseEvent(e.String()); err != nil || got != e {
			t.Fatalf("%q parsed to %+v, whose form %q parses to %+v, %v", s, e, e.String(), got, err)
		}
	})
}

// FuzzReliableLink throws fuzzer-chosen fault plans and traffic shapes at
// the reliability shim and asserts its whole contract: Send never fails for
// a satisfiable plan, Collect returns exactly the canonical batch, and no
// transmission is left pending once the barrier returns.
func FuzzReliableLink(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(5), uint8(4), uint16(200), uint16(100))
	f.Add(int64(42), uint8(0), uint8(2), uint8(1), uint16(0), uint16(0))
	f.Add(int64(-7), uint8(7), uint8(8), uint8(10), uint16(699), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, delayRaw, nRaw, roundsRaw uint8, dropRaw, dupRaw uint16) {
		plan := Plan{
			Seed:     seed,
			MaxDelay: int(delayRaw % 8),
			// <= 0.699: progress needs the data copy AND its ACK to survive a
			// retransmit cycle, so per-cycle success stays >= (1-0.7)^2 ≈ 0.09
			// and the barrier's sub-round budget is effectively never exhausted
			// (at drop 0.899 the fuzzer genuinely found it running out).
			Drop: float64(dropRaw%700) / 1000,
			Dup:  float64(dupRaw%1001) / 1000,
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("constructed invalid plan %+v: %v", plan, err)
		}
		n := 2 + int(nRaw%7)
		rounds := 1 + int(roundsRaw%10)

		nw := New(plan)
		nw.Reset(n)
		var total int64
		for r := 0; r < rounds; r++ {
			batch := testBatch(r, n)
			total += int64(len(batch))
			if err := nw.Send(r, batch); err != nil {
				t.Fatalf("plan %q round %d: Send: %v", plan, r, err)
			}
			got := nw.Collect(r + 1)
			if !reflect.DeepEqual(got, canonical(batch)) {
				t.Fatalf("plan %q round %d: delivery diverged from canonical batch\ngot  %v\nwant %v",
					plan, r, got, canonical(batch))
			}
		}
		if nw.Pending() != 0 {
			t.Fatalf("plan %q: %d messages still pending after barrier", plan, nw.Pending())
		}
		if d := nw.Phys().Delivered; d != total {
			t.Fatalf("plan %q: delivered %d of %d messages", plan, d, total)
		}
	})
}
