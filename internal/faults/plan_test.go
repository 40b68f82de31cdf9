package faults

import (
	"strings"
	"testing"
)

func TestPlanStringParseRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Seed: 42},
		{MaxDelay: 4},
		{Drop: 0.2},
		{Dup: 0.1},
		All(0),
		All(99),
		{Seed: -3, MaxDelay: 64, Drop: 0.999, Dup: 1},
		{Drop: 0.0625, Dup: 0.333},
	}
	for _, p := range plans {
		s := p.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != p {
			t.Errorf("Parse(%q) = %+v, want %+v", s, got, p)
		}
	}
}

func TestPlanParsePresets(t *testing.T) {
	for _, s := range []string{"", "none", "  none  "} {
		p, err := Parse(s)
		if err != nil || p != (Plan{}) {
			t.Errorf("Parse(%q) = %+v, %v; want zero plan", s, p, err)
		}
	}
	p, err := Parse("all")
	if err != nil || p != All(0) {
		t.Errorf("Parse(all) = %+v, %v; want %+v", p, err, All(0))
	}
	if (Plan{}).String() != "none" {
		t.Errorf("zero plan renders %q, want none", (Plan{}).String())
	}
}

func TestPlanParseErrors(t *testing.T) {
	bad := []string{
		"delay", "delay=x", "drop=z", "frobnicate=1", "drop=1", "drop=1.5",
		"drop=-0.1", "dup=2", "delay=-1", "delay=65", "seed=abc", "drop=NaN",
		// A repeated key used to win silently: "drop=0.2,drop=0" parsed to
		// the zero plan and the drill ran fault-free.
		"drop=0.2,drop=0",
		// Arrival order within a sub-round reaches nothing the shim
		// delivers, so the grammar has no reorder term.
		"reorder",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

// TestOpen pins the -faults / -fault-seed rule: no text means no shim at
// all, a plan without a seed term takes the flag's seed, one with keeps
// its own, and the canonical string is what checkpoint metadata records.
func TestOpen(t *testing.T) {
	for _, none := range []string{"", "none"} {
		if nw, err := Open(none, 7); nw != nil || err != nil || nw.PlanString() != "" {
			t.Fatalf("Open(%q) = %v, %v; want no network", none, nw, err)
		}
	}
	nw, err := Open("drop=0.2, delay=4", 7)
	if err != nil || nw.Plan != (Plan{Seed: 7, MaxDelay: 4, Drop: 0.2}) || nw.PlanString() != "delay=4,drop=0.2,seed=7" {
		t.Fatalf("seed defaulted from the flag: %+v, %v", nw, err)
	}
	if nw, err = Open("all,seed=3", 7); err == nil {
		t.Fatalf("preset mixed with terms accepted: %+v", nw.Plan)
	}
	if nw, err = Open("dup=0.1,seed=3", 7); err != nil || nw.Plan.Seed != 3 {
		t.Fatalf("plan's own seed lost: %+v, %v", nw, err)
	}
	if _, err = Open("drop=2", 7); err == nil {
		t.Fatal("invalid plan opened")
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	evs := []Event{
		{Round: 0, From: 0, To: 0, Kind: DropEvent},
		{Round: 7, From: 2, To: 5, Kind: DelayEvent, Arg: 3},
		{Round: 123, From: 9, To: 1, Kind: DupEvent},
	}
	for _, e := range evs {
		s := e.String()
		got, err := ParseEvent(s)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", s, err)
		}
		if got != e {
			t.Errorf("ParseEvent(%q) = %+v, want %+v", s, got, e)
		}
	}
	for _, s := range []string{
		"", "round=1", "round=1 from=0 to=2 kind=zap",
		"round=1 round=2 from=0 to=1 kind=drop", "bogus",
	} {
		if _, err := ParseEvent(s); err == nil {
			t.Errorf("ParseEvent(%q) succeeded, want error", s)
		}
	}
}

func TestPRFDeterministicAndKeyed(t *testing.T) {
	p := Plan{Seed: 11}
	a := p.prf(kindDataDrop, 3, 1, 2, 5, 0)
	if b := p.prf(kindDataDrop, 3, 1, 2, 5, 0); a != b {
		t.Fatalf("prf not deterministic: %x vs %x", a, b)
	}
	// Distinct keys must give distinct words (full-avalanche mixer; equal
	// words here would mean a key is being ignored).
	variants := []uint64{
		p.prf(kindDataDelay, 3, 1, 2, 5, 0),
		p.prf(kindDataDrop, 4, 1, 2, 5, 0),
		p.prf(kindDataDrop, 3, 2, 1, 5, 0),
		p.prf(kindDataDrop, 3, 1, 2, 6, 0),
		p.prf(kindDataDrop, 3, 1, 2, 5, 1),
		Plan{Seed: 12}.prf(kindDataDrop, 3, 1, 2, 5, 0),
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collides with base key", i)
		}
	}
}

func TestScriptFateComposes(t *testing.T) {
	script := []Event{
		{Round: 2, From: 0, To: 1, Kind: DelayEvent, Arg: 2},
		{Round: 2, From: 0, To: 1, Kind: DupEvent},
		{Round: 2, From: 0, To: 1, Kind: DelayEvent, Arg: 1}, // max wins
		{Round: 3, From: 0, To: 1, Kind: DropEvent},
	}
	f := scriptFateOf(script, 2, 0, 1)
	if f.Drop || f.Delay != 2 || !f.Dup {
		t.Errorf("round 2 fate = %+v, want delay=2 dup", f)
	}
	f = scriptFateOf(script, 3, 0, 1)
	if !f.Drop {
		t.Errorf("round 3 fate = %+v, want drop", f)
	}
	if f = scriptFateOf(script, 4, 0, 1); f != (Fate{}) {
		t.Errorf("round 4 fate = %+v, want none", f)
	}
}

func TestPlanStringOrderIsCanonical(t *testing.T) {
	s := All(5).String()
	want := "delay=4,drop=0.2,dup=0.1,seed=5"
	if s != want {
		t.Errorf("All(5).String() = %q, want %q", s, want)
	}
	if i := strings.Index(s, "delay"); i != 0 {
		t.Errorf("canonical form must lead with delay: %q", s)
	}
}
