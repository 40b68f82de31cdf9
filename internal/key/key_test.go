package key

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/quickcheck"
)

func TestPerfectSquareGamma(t *testing.T) {
	// γ = √(4/1) = 2 exactly.
	g := NewRatio(4, 1)
	if got := g.CeilKappa(3, 1); got != 7 {
		t.Fatalf("⌈3·2+1⌉ = %d, want 7", got)
	}
	if c := g.Cmp(1, 2, 2, 0); c != 0 {
		t.Fatalf("1·2+2 vs 2·2+0: cmp = %d, want 0", c)
	}
	if c := g.Cmp(1, 3, 2, 0); c != 1 {
		t.Fatalf("5 vs 4: cmp = %d, want 1", c)
	}
}

func TestIrrationalGamma(t *testing.T) {
	// γ = √2.
	g := NewRatio(2, 1)
	// ⌈1·√2⌉ = 2, ⌈2·√2⌉ = 3, ⌈5·√2⌉ = ⌈7.07⌉ = 8.
	cases := []struct{ d, want int64 }{{0, 0}, {1, 2}, {2, 3}, {5, 8}, {7, 10}, {10, 15}}
	for _, c := range cases {
		if got := g.CeilKappa(c.d, 0); got != c.want {
			t.Fatalf("⌈%d√2⌉ = %d, want %d", c.d, got, c.want)
		}
	}
	// √2 vs 1.5: 2γ vs 3 → 8 vs 9 → less.
	if c := g.Cmp(2, 0, 0, 3); c != -1 {
		t.Fatalf("2√2 vs 3: cmp = %d, want -1", c)
	}
	if c := g.Cmp(0, 3, 2, 0); c != 1 {
		t.Fatalf("3 vs 2√2: cmp = %d, want 1", c)
	}
}

func TestFractionalGamma(t *testing.T) {
	// γ = √(1/4) = 1/2.
	g := NewRatio(1, 4)
	if got := g.CeilKappa(3, 0); got != 2 {
		t.Fatalf("⌈3/2⌉ = %d, want 2", got)
	}
	if got := g.CeilKappa(4, 1); got != 3 {
		t.Fatalf("⌈4/2+1⌉ = %d, want 3", got)
	}
	if c := g.Cmp(2, 0, 0, 1); c != 0 {
		t.Fatalf("2·(1/2) vs 1: cmp = %d, want 0", c)
	}
}

func TestNewClampsDelta(t *testing.T) {
	g := New(3, 5, 0) // Δ=0 clamped to 1 → γ = √15
	if g.num != 15 || g.den != 1 {
		t.Fatalf("gamma = √(%d/%d), want √(15/1)", g.num, g.den)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, c := range []struct{ k, h int }{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,1) did not panic", c.k, c.h)
				}
			}()
			New(c.k, c.h, 1)
		}()
	}
}

func TestScheduleMatchesDefinition(t *testing.T) {
	g := New(4, 9, 7) // γ = √(36/7)
	// Step 1 of Algorithm 1 sends the entry at list position pos in round
	// ⌈κ⌉ + pos = ⌈dγ⌉ + l + pos: d=3, l=2 gives ⌈√(324/7)⌉ + 2 = 7 + 2,
	// so position 5 sends in round 14.
	if got := g.CeilKappa(3, 2) + 5; got != 14 {
		t.Fatalf("send round = %d, want 14", got)
	}
}

func TestBoundFormula(t *testing.T) {
	// Bound = ⌈2√(khΔ)⌉ + h + k. k=2,h=8,Δ=4 → 2√64=16 → 16+8+2=26.
	if got := Bound(2, 8, 4); got != 26 {
		t.Fatalf("Bound = %d, want 26", got)
	}
	// Non-square: k=1,h=1,Δ=2 → ⌈2√2⌉=3 → 3+1+1=5.
	if got := Bound(1, 1, 2); got != 5 {
		t.Fatalf("Bound = %d, want 5", got)
	}
	// Δ=0 clamps to 1: ⌈2√(kh)⌉+h+k.
	if got := Bound(4, 4, 0); got != 16 {
		t.Fatalf("Bound(Δ=0) = %d, want 16", got)
	}
}

// exactCmp computes sign((d1-d2)·√(num/den) + (l1-l2)) with big.Float at
// high precision, as an independent oracle.
func exactCmp(num, den, d1, l1, d2, l2 int64) int {
	prec := uint(256)
	gamma := new(big.Float).SetPrec(prec).Quo(
		new(big.Float).SetPrec(prec).SetInt64(num),
		new(big.Float).SetPrec(prec).SetInt64(den))
	gamma.Sqrt(gamma)
	k1 := new(big.Float).SetPrec(prec).Mul(gamma, big.NewFloat(0).SetInt64(d1))
	k1.Add(k1, new(big.Float).SetInt64(l1))
	k2 := new(big.Float).SetPrec(prec).Mul(gamma, big.NewFloat(0).SetInt64(d2))
	k2.Add(k2, new(big.Float).SetInt64(l2))
	c := k1.Cmp(k2)
	// big.Float at 256 bits cannot prove equality of irrationals; but our
	// inputs are bounded so any true inequality is far above 2^-200.
	return c
}

func TestQuickCmpAgainstBigFloat(t *testing.T) {
	f := func(numRaw, denRaw uint16, d1, l1, d2, l2 uint16) bool {
		num := int64(numRaw%1000) + 1
		den := int64(denRaw%1000) + 1
		g := NewRatio(num, den)
		got := g.Cmp(int64(d1), int64(l1), int64(d2), int64(l2))
		want := exactCmp(num, den, int64(d1), int64(l1), int64(d2), int64(l2))
		return got == want
	}
	quickcheck.Check(t, f, 2000)
}

func TestQuickCeilAgainstBigFloat(t *testing.T) {
	f := func(numRaw, denRaw uint16, dRaw uint32, lRaw uint16) bool {
		num := int64(numRaw%5000) + 1
		den := int64(denRaw%5000) + 1
		d := int64(dRaw % 100000)
		l := int64(lRaw % 1000)
		g := NewRatio(num, den)
		got := g.CeilKappa(d, l)
		// Verify the two defining properties of the ceiling exactly:
		// (got-l) ≥ d·γ and (got-l-1) < d·γ (when got-l ≥ 1).
		c := got - l
		if !g.geCSquared(c, d) {
			return false
		}
		if c > 0 && g.geCSquared(c-1, d) {
			return false
		}
		return true
	}
	quickcheck.Check(t, f, 2000)
}

func TestBigFallbackPath(t *testing.T) {
	// Force the overflow fallback: enormous num and operands.
	g := NewRatio(math.MaxInt64/2, 1)
	if g.fastA > 2 {
		t.Fatalf("fastA = %d, expected tiny threshold", g.fastA)
	}
	// a=10^9, γ huge: a·γ + b with b = -10^18 — decide via big path.
	a, b := int64(1_000_000_000), int64(-1_000_000_000_000_000_000)
	// a²·num ≈ 10^18 · 4.6·10^18 ≫ b²... b² overflows int64 massively; the
	// sign must come out via big.Int. aγ ≈ 10^9·2.1·10^9 ≈ 2.1·10^18 > 10^18.
	if s := g.signAGammaPlusB(a, b); s != 1 {
		t.Fatalf("big-path sign = %d, want 1", s)
	}
	if s := g.signAGammaPlusB(-a, -b); s != -1 {
		t.Fatalf("big-path sign = %d, want -1", s)
	}
	// CeilKappa through the big path must still satisfy its definition.
	got := g.CeilKappa(3, 0)
	if !g.geCSquared(got, 3) || g.geCSquared(got-1, 3) {
		t.Fatalf("big-path CeilKappa(3,0) = %d fails ceiling definition", got)
	}
}

func TestCmpTotalOrderProperties(t *testing.T) {
	g := New(3, 7, 11)
	type kv struct{ d, l int64 }
	vals := []kv{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}, {3, 2}, {5, 0}, {0, 5}, {4, 4}, {7, 1}}
	for _, a := range vals {
		if g.Cmp(a.d, a.l, a.d, a.l) != 0 {
			t.Fatalf("reflexivity failed at %+v", a)
		}
		for _, b := range vals {
			ab := g.Cmp(a.d, a.l, b.d, b.l)
			ba := g.Cmp(b.d, b.l, a.d, a.l)
			if ab != -ba {
				t.Fatalf("antisymmetry failed: %+v vs %+v: %d %d", a, b, ab, ba)
			}
			for _, c := range vals {
				bc := g.Cmp(b.d, b.l, c.d, c.l)
				ac := g.Cmp(a.d, a.l, c.d, c.l)
				if ab <= 0 && bc <= 0 && ac > 0 {
					t.Fatalf("transitivity failed: %+v %+v %+v", a, b, c)
				}
			}
		}
	}
}

func TestCeilKappaPanicsOnNegative(t *testing.T) {
	g := NewRatio(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("CeilKappa(-1, 0) did not panic")
		}
	}()
	g.CeilKappa(-1, 0)
}
