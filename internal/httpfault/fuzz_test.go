package httpfault

import (
	"testing"
	"time"
)

// FuzzHTTPFaultPlan checks the Parse/String bijection on the plan
// grammar: any string Parse accepts must survive a String round trip
// bit-exactly, and the parsed plan must validate — the same contract
// FuzzFaultPlan holds for the engine-level fault plans.
func FuzzHTTPFaultPlan(f *testing.F) {
	f.Add("none")
	f.Add("all")
	f.Add("delay=2ms,delayp=0.2,reset=0.1,err500=0.05,err503=0.05,truncate=0.05,blackhole=0.02,seed=7")
	f.Add("reset=0.99,seed=-1")
	f.Add("delay=1ns,delayp=1e-9")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return // rejected inputs are out of scope
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted invalid plan %+v: %v", s, p, verr)
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q) failed: %v", s, canon, err)
		}
		if p != p2 {
			t.Fatalf("round trip %q: %+v != %+v", s, p, p2)
		}
		if p2.String() != canon {
			t.Fatalf("String not canonical: %q vs %q", p2.String(), canon)
		}
		// The PRF must be total on any valid plan (no panics, stable fate).
		for req := uint64(0); req < 4; req++ {
			f1, f2 := p.planFate(req), p.planFate(req)
			if f1 != f2 {
				t.Fatalf("planFate(%d) unstable: %+v vs %+v", req, f1, f2)
			}
			if f1.Delay < 0 || f1.Delay > time.Second {
				t.Fatalf("planFate(%d) delay %v out of range", req, f1.Delay)
			}
		}
	})
}
