package key

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// One scanner for the repository's "key=value" text grammars: the two
// fault-plan grammars (comma-separated terms), the two fault-event
// grammars and the ddmin fixture header (whitespace-separated fields).
// Each grammar supplies only its vocabulary; splitting, trimming, the
// "=" cut and the bad / unknown / repeated / missing-term errors live
// here, so a rule such as "a repeated key is an error, not last-wins"
// holds for every grammar at once.

// Term is one word of a grammar's vocabulary.
type Term struct {
	// Set parses the value text into the grammar's target (see Into).
	Set func(v string) error
	// Need marks a word every input must carry.
	Need bool
}

// Vocab maps each key of a grammar to its Term.
type Vocab map[string]Term

// Into adapts a strconv-style parser to a Term setter storing into dst.
func Into[T any](dst *T, parse func(string) (T, error)) func(string) error {
	return func(v string) (err error) {
		*dst, err = parse(v)
		return err
	}
}

// Int64 and Float are the base-10 / 64-bit parsers in the shape Into
// takes (strconv.Atoi, time.ParseDuration etc. already have it).
func Int64(v string) (int64, error)   { return strconv.ParseInt(v, 10, 64) }
func Float(v string) (float64, error) { return strconv.ParseFloat(v, 64) }

// Prob renders a probability in the shortest form that parses back to the
// same float64 — the canonical spelling of every plan's String.
func Prob(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Scan splits s into terms (on sep, or on whitespace when sep is ""),
// and feeds each to its vocabulary word. what names the term kind in
// errors ("plan term", "event field"), every error carries pkg as its
// prefix. A key outside the vocabulary, a key given twice, a word
// without "=value", a value its setter rejects, and a missing Need word
// are all errors.
func Scan(pkg, what, s, sep string, vocab Vocab) error {
	terms := strings.Fields(s)
	if sep != "" {
		terms = strings.Split(s, sep)
	}
	seen := make(map[string]bool, len(vocab))
	for _, term := range terms {
		k, v, valued := strings.Cut(term, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		t, known := vocab[k]
		switch {
		case !known && valued:
			return fmt.Errorf("%s: unknown %s %q in %q", pkg, what, k, s)
		case !known || !valued:
			return fmt.Errorf("%s: bad %s %q in %q", pkg, what, strings.TrimSpace(term), s)
		case seen[k]:
			return fmt.Errorf("%s: repeated %s %q in %q", pkg, what, k, s)
		}
		seen[k] = true
		if err := t.Set(v); err != nil {
			return fmt.Errorf("%s: bad %s %q: %v", pkg, k, v, err)
		}
	}
	var missing []string
	for k, t := range vocab {
		if t.Need && !seen[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s: %q is missing %s %s", pkg, s, what, strings.Join(missing, "/"))
	}
	return nil
}
