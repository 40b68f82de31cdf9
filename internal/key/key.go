// Package key implements exact arithmetic for the path keys used by the
// paper's pipelined Algorithm 1 (Sec. II-A):
//
//	κ = d·γ + l,   γ = √(k·h/Δ)
//
// where d is the weighted length of a path, l its hop count, k the number of
// sources, h the hop bound, and Δ the distance bound. γ is irrational in
// general, so comparing keys or computing the send schedule ⌈κ⌉ + pos with
// floating point would make schedule decisions depend on rounding noise.
// This package compares keys and computes ⌈κ⌉ exactly: comparisons reduce to
// integer sign tests of a·γ + b, evaluated by cross-squaring, with a fast
// int64 path and a math/big fallback when squares would overflow.
package key

import (
	"fmt"
	"math"
	"math/big"
)

// Gamma represents γ = √(Num/Den) with Num, Den positive integers. It is
// immutable and safe for concurrent use.
type Gamma struct {
	num, den int64
	fastA    int64   // |a| bound for the int64 fast path on a²·num
	fastB    int64   // |b| bound for the int64 fast path on b²·den
	approx   float64 // float estimate of γ, where ceilDGamma starts its exact search
}

// New returns γ = √(k·h/Δ), the key slope of Algorithm 1. Δ is clamped to at
// least 1 (a Δ of 0 means every shortest-path distance is 0; γ's role is
// only to weigh d against l and any positive finite slope is then valid).
// k and h must be positive.
func New(k, h int, delta int64) Gamma {
	if k <= 0 || h <= 0 {
		panic(fmt.Sprintf("key: k=%d h=%d must be positive", k, h))
	}
	if delta < 1 {
		delta = 1
	}
	return NewRatio(int64(k)*int64(h), delta)
}

// NewRatio returns γ = √(num/den) for positive num, den.
func NewRatio(num, den int64) Gamma {
	if num <= 0 || den <= 0 {
		panic(fmt.Sprintf("key: gamma ratio %d/%d must be positive", num, den))
	}
	g := Gamma{num: num, den: den}
	g.fastA = int64(math.Sqrt(float64(math.MaxInt64)/float64(num))) - 2
	g.fastB = int64(math.Sqrt(float64(math.MaxInt64)/float64(den))) - 2
	if g.fastA < 0 {
		g.fastA = 0
	}
	if g.fastB < 0 {
		g.fastB = 0
	}
	g.approx = math.Sqrt(float64(num) / float64(den))
	return g
}

// signAGammaPlusB returns the sign of a·γ + b in {-1, 0, +1}, exactly.
func (g Gamma) signAGammaPlusB(a, b int64) int {
	switch {
	case a == 0 && b == 0:
		return 0
	case a >= 0 && b >= 0:
		return 1 // not both zero
	case a <= 0 && b <= 0:
		return -1
	}
	// Opposite signs: compare a²·num against b²·den, the squares of the two
	// sides of a·γ = -b.
	var cmp int
	absA, absB := a, b
	if absA < 0 {
		absA = -absA
	}
	if absB < 0 {
		absB = -absB
	}
	if absA <= g.fastA && absB <= g.fastB {
		lhs := absA * absA * g.num
		rhs := absB * absB * g.den
		switch {
		case lhs < rhs:
			cmp = -1
		case lhs > rhs:
			cmp = 1
		}
	} else {
		lhs := new(big.Int).Mul(big.NewInt(absA), big.NewInt(absA))
		lhs.Mul(lhs, big.NewInt(g.num))
		rhs := new(big.Int).Mul(big.NewInt(absB), big.NewInt(absB))
		rhs.Mul(rhs, big.NewInt(g.den))
		cmp = lhs.Cmp(rhs)
	}
	// cmp orders |a|γ vs |b|. If a > 0 (so b < 0): sign(aγ+b) = cmp.
	// If a < 0 (so b > 0): sign = -cmp.
	if a > 0 {
		return cmp
	}
	return -cmp
}

// Cmp compares κ1 = d1·γ + l1 with κ2 = d2·γ + l2 exactly, returning
// -1, 0 or +1.
func (g Gamma) Cmp(d1, l1, d2, l2 int64) int {
	return g.signAGammaPlusB(d1-d2, l1-l2)
}

// CeilKappa returns ⌈d·γ + l⌉ exactly: l + (the least c ≥ 0 with
// c²·den ≥ d²·num). d and l must be non-negative.
func (g Gamma) CeilKappa(d, l int64) int64 {
	if d < 0 || l < 0 {
		panic(fmt.Sprintf("key: CeilKappa(%d,%d) wants non-negative arguments", d, l))
	}
	return l + g.ceilDGamma(d)
}

// ceilDGamma returns ⌈d·γ⌉ for d ≥ 0.
func (g Gamma) ceilDGamma(d int64) int64 {
	if d == 0 {
		return 0
	}
	// Estimate then fix up with exact comparisons c·γ ≥/=< d... we need the
	// least c with c ≥ d·γ, i.e. c²·den ≥ d²·num.
	est := int64(float64(d) * g.approx)
	c := est - 2
	if c < 0 {
		c = 0
	}
	for !g.geCSquared(c, d) {
		c++
	}
	return c
}

// geCSquared reports c²·den ≥ d²·num exactly (c, d ≥ 0).
func (g Gamma) geCSquared(c, d int64) bool {
	if c <= g.fastB && d <= g.fastA {
		return c*c*g.den >= d*d*g.num
	}
	lhs := new(big.Int).Mul(big.NewInt(c), big.NewInt(c))
	lhs.Mul(lhs, big.NewInt(g.den))
	rhs := new(big.Int).Mul(big.NewInt(d), big.NewInt(d))
	rhs.Mul(rhs, big.NewInt(g.num))
	return lhs.Cmp(rhs) >= 0
}

// Bound returns the paper's round bound for Algorithm 1 with these
// parameters: ⌈Δγ + h + Δγ + k⌉ ≤ ⌈2√(khΔ)⌉ + h + k (Lemma II.14). It is
// computed exactly as ⌈2Δγ⌉ + h + k.
func Bound(k, h int, delta int64) int64 {
	if delta < 1 {
		delta = 1
	}
	// 2Δγ = √(4Δ²·kh/Δ) = √(4Δkh): least c with c² ≥ 4·Δ·k·h.
	return ceilSqrtProduct(4*delta, int64(k)*int64(h)) + int64(h) + int64(k)
}

// ceilSqrtProduct returns ⌈√(a·b)⌉ for non-negative a, b using big.Int, so
// it never overflows.
func ceilSqrtProduct(a, b int64) int64 {
	p := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	c := new(big.Int).Sqrt(p) // floor sqrt
	if new(big.Int).Mul(c, c).Cmp(p) < 0 {
		c.Add(c, big.NewInt(1))
	}
	return c.Int64()
}
