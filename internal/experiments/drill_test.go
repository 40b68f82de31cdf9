package experiments

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/difftest"
)

// The serving tier's model test: seeded operation scripts run against the
// drill's in-process cluster (2 shards × 2 replicas behind a router, n=12),
// and the judge holds every response the client sees to the reference of
// the generation it is stamped with. A failing script is shrunk with
// difftest.DDMin and printed as a fuzz corpus entry, so it replays with
// go test -run FuzzServingModel/<file>.

const modelN, modelM, modelGraphSeed = 12, 40, 7

// modelSeeds is the tier-1 seed set; its op census must cover every op.
var modelSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// censusNames are the ops the seed set must run, each at least once with
// effect (a kill of a live replica, a corruption of an existing file, ...).
var censusNames = []string{"dist", "path", "batch", "dist direct", "path direct", "batch direct",
	"load", "await", "rollout", "kill", "restart", "restart cold", "crash", "corrupt", "faults", "remap"}

// decodeScript reads a script four bytes per op: the kind, then three
// operands reduced to the model topology's ranges (see op for their
// meaning). Trailing bytes are ignored; scripts stop at 32 ops.
func decodeScript(data []byte) []op {
	var s []op
	for ; len(data) >= 4 && len(s) < 32; data = data[4:] {
		o := op{kind: opKinds[int(data[0])%len(opKinds)]}
		a, b, c := int(data[1]), int(data[2]), int(data[3])
		switch o.kind {
		case "query":
			o.a, o.b, o.c = a%5-1, 1+b%4, c%3
		case "load":
			o.a, o.b, o.c = 1+a%8, 8+b%24, c%2
		case "kill", "restart", "crash", "corrupt":
			o.a = a % 4
		case "faults":
			o.a, o.b = 2*(a%2), b // no 503s: the router would wait out each one's Retry-After: 1
		case "remap":
			o.a, o.b = a%2, 1+b%3
		}
		s = append(s, o)
	}
	return s
}

// encodeScript is decodeScript's inverse on decoded scripts.
func encodeScript(s []op) []byte {
	var out []byte
	for _, o := range s {
		a, b := o.a, o.b
		switch o.kind {
		case "query":
			a, b = a+1, b-1
		case "load":
			a, b = a-1, b-8
		case "faults":
			a /= 2
		case "remap":
			b--
		}
		out = append(out, byte(slices.Index(opKinds, o.kind)), byte(a), byte(b), byte(o.c))
	}
	return out
}

// genScript draws a seeded 24-op script. Queries are drawn more often than
// state changes, so each change is followed by something to judge.
func genScript(seed uint64) []op {
	rng := rand.New(rand.NewPCG(seed, 0))
	kinds := []string{"query", "query", "query", "query", "query", "load", "await", "rollout", "rollout",
		"kill", "restart", "restart", "crash", "corrupt", "faults", "remap"}
	var buf []byte
	for range 24 {
		buf = append(buf, byte(slices.Index(opKinds, kinds[rng.IntN(len(kinds))])), byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256)))
	}
	return decodeScript(buf)
}

// runModel runs script on a fresh model cluster. It returns the ops that
// took effect and, when the run failed, the first wrong answer or the
// harness error.
func runModel(script []op) (map[string]int, string) {
	d, err := newDrill(modelN, modelM, modelGraphSeed, 2, 2, true)
	if err != nil {
		return nil, "setup: " + err.Error()
	}
	defer d.close()
	r, err := d.run(script, client.Options{AttemptTimeout: 500 * time.Millisecond, MaxAttempts: 3,
		BaseBackoff: 500 * time.Microsecond, MaxBackoff: 4 * time.Millisecond, CapRetryAfter: 2 * time.Millisecond, BreakerTrip: -1})
	switch {
	case err != nil:
		return d.census, err.Error()
	case r.wrong.Load() > 0:
		return d.census, *r.firstWrong.Load()
	}
	return d.census, ""
}

// FuzzServingModel decodes its input to a script and runs it; the tier-1
// seeds are genScript's draws for modelSeeds, and together they must run
// every op in censusNames. A failure is shrunk and printed replayable.
func FuzzServingModel(f *testing.F) {
	seeds := map[string]bool{}
	for _, s := range modelSeeds {
		b := encodeScript(genScript(s))
		seeds[string(b)] = true
		f.Add(b)
	}
	census, ran := map[string]int{}, map[string]bool{}
	f.Fuzz(func(t *testing.T, data []byte) {
		script := decodeScript(data)
		c, why := runModel(script)
		if why != "" {
			shrunk := difftest.DDMin(script, func(s []op) bool { _, w := runModel(s); return w != "" })
			_, again := runModel(shrunk)
			t.Fatalf("%s\nshrunk to %d ops: %v\nwhich failed with: %s\nto replay, save as testdata/fuzz/FuzzServingModel/<name> and run go test -run FuzzServingModel/<name>:\ngo test fuzz v1\n[]byte(%q)",
				why, len(shrunk), shrunk, again, encodeScript(shrunk))
		}
		if seeds[string(data)] {
			ran[string(data)] = true
			for k, v := range c {
				census[k] += v
			}
		}
	})
	if len(ran) < len(seeds) {
		return // fuzzing, or -run picked some seeds: no census
	}
	f.Logf("op census of the seed scripts: %v", census)
	for _, name := range censusNames {
		if census[name] == 0 {
			f.Errorf("no seed script ran %q with effect; census %v", name, census)
		}
	}
}

func TestScriptCodecRoundTrip(t *testing.T) {
	for _, s := range modelSeeds {
		script := genScript(s)
		if got := decodeScript(encodeScript(script)); !slices.Equal(got, script) {
			t.Fatalf("seed %d: decode(encode(%v)) = %v", s, script, got)
		}
	}
}

// TestChaosSerialRowsDeterministic pins E-CHAOS's promise that its serial
// clean and chaos rows are pure functions of the seed.
func TestChaosSerialRowsDeterministic(t *testing.T) {
	var rows [2][][]string
	for i := range rows {
		tab, err := Run("E-CHAOS", Config{Small: true, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = tab.Rows[:2]
	}
	for r := range rows[0] {
		if !slices.Equal(rows[0][r], rows[1][r]) {
			t.Errorf("E-CHAOS row %d differs between runs: %v vs %v", r, rows[0][r], rows[1][r])
		}
	}
}
