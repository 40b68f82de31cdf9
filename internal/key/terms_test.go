package key

import (
	"strconv"
	"strings"
	"testing"
)

// TestScan pins the scanner's contract for both separators: trimming,
// and one error per way a term list can be wrong — each carrying the
// grammar's package prefix.
func TestScan(t *testing.T) {
	parse := func(s, sep string) (n int, p float64, err error) {
		err = Scan("pkg", "term", s, sep, Vocab{
			"n": {Need: true, Set: Into(&n, strconv.Atoi)},
			"p": {Set: Into(&p, Float)},
		})
		return
	}
	if n, p, err := parse(" p = 0.25 ,n=3", ","); err != nil || n != 3 || p != 0.25 {
		t.Fatalf("comma list: n=%d p=%v err=%v", n, p, err)
	}
	if n, p, err := parse("n=4\tp=1e-3", ""); err != nil || n != 4 || p != 1e-3 {
		t.Fatalf("field list: n=%d p=%v err=%v", n, p, err)
	}
	for s, want := range map[string]string{
		"n=1,n=2": "repeated term",
		"n=1,q=2": "unknown term",
		"n=1,p":   "bad term",
		"n=1,":    "bad term",
		"n=x":     `bad n "x"`,
		"p=0.5":   "missing term n",
	} {
		_, _, err := parse(s, ",")
		if err == nil || !strings.HasPrefix(err.Error(), "pkg: ") || !strings.Contains(err.Error(), want) {
			t.Errorf("Scan(%q) = %v, want a pkg: error mentioning %q", s, err, want)
		}
	}
}

func TestProbRoundTrips(t *testing.T) {
	for _, v := range []float64{0.2, 0.0625, 1e-300, 1, 0.333} {
		if got, err := Float(Prob(v)); err != nil || got != v {
			t.Errorf("Float(Prob(%v)) = %v, %v", v, got, err)
		}
	}
	if Prob(0.2) != "0.2" {
		t.Errorf("Prob(0.2) = %q, want the shortest form", Prob(0.2))
	}
}
