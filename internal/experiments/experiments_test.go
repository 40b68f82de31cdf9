package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"A-LIST", "A-LIT", "A-ZERO", "E-APX", "E-BIG", "E-BLK", "E-CHAOS", "E-CLUSTER", "E-CONV", "E-CSSSP", "E-DELTA", "E-INV", "E-KSSP", "E-SCALE", "E-SCHED", "E-SR", "E-STEP1", "E-T11", "E-T1213", "F1", "SCORECARD", "T1-approx", "T1-exact"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", Config{Small: true}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestEachExperimentSmall(t *testing.T) {
	// Every experiment must run to completion at small size and produce a
	// non-empty, well-formed table (internal validations inside each
	// experiment fail loudly if an algorithm returns a wrong distance).
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Config{Small: true, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tab.ID != id {
				t.Fatalf("table ID %q != %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Headers) {
					t.Fatalf("%s: ragged row %v vs headers %v", id, row, tab.Headers)
				}
			}
			var buf bytes.Buffer
			tab.Format(&buf)
			if !strings.Contains(buf.String(), id) {
				t.Fatalf("%s: formatted output missing ID", id)
			}
		})
	}
}

// column returns the cells under one header, top to bottom.
func column(t *testing.T, tab *Table, header string) []string {
	t.Helper()
	for i, h := range tab.Headers {
		if h == header {
			col := make([]string, len(tab.Rows))
			for r, row := range tab.Rows {
				col[r] = row[i]
			}
			return col
		}
	}
	t.Fatalf("%s: no column %q in %q", tab.ID, header, tab.Headers)
	return nil
}

// TestPaperClaimsPinned turns what the tables exist to show into
// assertions: the scorecard's verdict per claim, and the bound each
// theorem's table measures against, read from the table's own columns. A
// change to the list, the schedule or a protocol family that moves a
// verdict or breaks a bound fails here, not in a printout.
func TestPaperClaimsPinned(t *testing.T) {
	run := func(id string) *Table {
		tab, err := Run(id, Config{Small: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return tab
	}

	card := run("SCORECARD")
	claims, verdicts := column(t, card, "claim"), column(t, card, "verdict")
	want := [][2]string{
		{"Thm I.1 correctness", "CONFIRMED*"},
		{"Thm I.1 rounds", "CONFIRMED"},
		{"Lemma II.12 (Inv 1)", "CONFIRMED"},
		{"Lemma II.11 (Inv 2)", "CONFIRMED"},
		{"Alg 1 INSERT eviction", "REFUTED"},
		{"Thm I.1(ii) APSP", "CONFIRMED"},
		{"Lemma II.15 dilation", "CONFIRMED"},
		{"Lemma II.15 congestion", "CONFIRMED"},
		{"Lemma III.4 (CSSSP)", "CONFIRMED*"},
		{"Def III.1 coverage", "CONFIRMED"},
		{"Lemma III.8 (Alg 4)", "CONFIRMED"},
		{"Thms I.2/I.3 (Alg 3)", "CONFIRMED"},
		{"Thm I.5 (approx)", "CONFIRMED"},
		{"Sec. V future work", "IMPLEMENTED"},
	}
	if len(claims) != len(want) {
		t.Fatalf("SCORECARD has %d rows, want %d: %q", len(claims), len(want), claims)
	}
	for i, w := range want {
		if claims[i] != w[0] || verdicts[i] != w[1] {
			t.Errorf("SCORECARD row %d: %q is %s, want %q %s", i, claims[i], verdicts[i], w[0], w[1])
		}
	}

	// E-T1213 is not pinned: at Small every row has Alg3 |Q| = 0, so
	// Algorithm 3 never builds a blocker set there and its winner column
	// measures nothing of Theorems I.2/I.3. E-CONV, E-SCALE and A-LIST
	// carry no claim of the zero-column or column ≤ column shape.
	for _, c := range []struct {
		id   string
		rows int
		zero []string    // columns that read 0 in every row
		le   [][2]string // column pairs, left ≤ right in every row
	}{
		{"E-T11", 9, nil, [][2]string{{"rounds", "bound"}}},
		{"E-INV", 6, []string{"inv1 viol"}, [][2]string{{"maxPerSrc", "min(h,Δ)+2"}}},
		{"E-SR", 6, []string{"snap viol"}, nil},
		{"E-CSSSP", 4, []string{"violations"}, [][2]string{{"rounds", "2√(2khΔ)+k+2h"}}},
		{"E-BLK", 4, nil, [][2]string{{"|Q|", "(n ln n)/h"}, {"upd/pick", "k+h-1"}}},
		{"A-LIT", 5, []string{"underestimates"}, nil},
		{"E-SCHED", 3, nil, [][2]string{{"k-source γ rounds", "random delays rounds"}}},
		{"E-BIG", 2, nil, [][2]string{{"rounds", "bound 2n√Δ+2n"}}},
		{"T1-exact", 2, nil, [][2]string{{"Alg1 (this paper)", "bound 2n√Δ+2n"}}},
		{"E-KSSP", 4, nil, [][2]string{{"Alg1 rounds", "Alg1 bound"}}},
		{"E-DELTA", 5, nil, [][2]string{{"rounds", "bound"}}},
		{"E-APX", 3, nil, [][2]string{{"max stretch", "1+ε"}}},
		{"T1-approx", 2, nil, [][2]string{{"max stretch", "1+ε"}}},
		{"E-STEP1", 3, nil, [][2]string{{"Alg1 rounds", "BF rounds"}}},
		{"A-ZERO", 4, []string{"lenient wrong", "Alg1 wrong"}, nil},
	} {
		tab := run(c.id)
		if len(tab.Rows) != c.rows {
			t.Errorf("%s has %d rows, want %d", c.id, len(tab.Rows), c.rows)
		}
		for _, h := range c.zero {
			for r, cell := range column(t, tab, h) {
				if cell != "0" {
					t.Errorf("%s row %d: %s = %s, want 0", c.id, r, h, cell)
				}
			}
		}
		for _, pair := range c.le {
			lo, hi := column(t, tab, pair[0]), column(t, tab, pair[1])
			for r := range lo {
				a, aerr := strconv.ParseFloat(lo[r], 64)
				b, berr := strconv.ParseFloat(hi[r], 64)
				if aerr != nil || berr != nil || a > b {
					t.Errorf("%s row %d: %s = %s exceeds %s = %s", c.id, r, pair[0], lo[r], pair[1], hi[r])
				}
			}
		}
	}

	// The refuted reading stays refuted and the repair stays exact: Pareto
	// loses nothing, the literal gate + eviction loses something.
	lit := run("A-LIT")
	variants, wrong := column(t, lit, "variant"), column(t, lit, "wrong pairs")
	if variants[0] != "pareto (default)" || wrong[0] != "0" {
		t.Errorf("A-LIT row 0: %q has %s wrong pairs, want pareto with 0", variants[0], wrong[0])
	}
	if n, err := strconv.Atoi(wrong[1]); variants[1] != "literal gate+evict" || err != nil || n <= 0 {
		t.Errorf("A-LIT row 1: %q has %s wrong pairs, want the literal reading with > 0", variants[1], wrong[1])
	}

	// The literature's strict send rule is exact without zero edges and
	// loses distances at every larger zero fraction.
	zero := run("A-ZERO")
	fracs, strict := column(t, zero, "zeroFrac"), column(t, zero, "strict wrong")
	for r := range strict {
		n, err := strconv.Atoi(strict[r])
		if err != nil || (fracs[r] == "0.00") != (n == 0) {
			t.Errorf("A-ZERO row %d: strict wrong = %s at zeroFrac %s, want 0 exactly at 0.00", r, strict[r], fracs[r])
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Headers: []string{"a", "bb"}}
	tab.AddRow(1, "x")
	tab.AddRow(2.5, 7)
	tab.Note("hello %d", 42)
	var buf bytes.Buffer
	tab.Format(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "a", "bb", "2.500", "hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Headers: []string{"a", "bb"}}
	tab.AddRow(1, "x")
	tab.Note("footnote")
	var buf bytes.Buffer
	tab.Markdown(&buf)
	out := buf.String()
	for _, want := range []string{"### X — demo", "| a | bb |", "| --- | --- |", "| 1 | x |", "*footnote*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown output missing %q:\n%s", want, out)
		}
	}
}
