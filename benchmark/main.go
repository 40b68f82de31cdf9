// Command benchmark is the repository's one ledger: it drives the public
// entry points of every layer (CONGEST simulation, rebuild through a
// sharded cluster, routed queries) on six workloads, checks every answer
// against the sequential reference graph.APSP, and prints every metric by
// name with its unit. See README.md beside this file.
//
//	bash benchmark/run.sh --workload sim_apsp --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(b *bench) error
}

var workloads = []workload{
	{"sim_apsp", "Algorithm 1 saturated: all 256 sources, ~n list entries per node; core list insertion and the congest message plane do the work",
		func(b *bench) error { return runSim(b, false) }},
	{"sim_blocker", "Algorithm 3 with fixed h=4: ~200 short engine runs at under half the active share; per-run set-up cost shows here, not on sim_apsp",
		func(b *bench) error { return runSim(b, true) }},
	{"rebuild_sparse", "operator rebuild through a 3-shard cluster, n=1536 sparse: Dijkstra kernel, autosave fsync and rollout polling share the op; paced reads beside it",
		func(b *bench) error { return runRebuild(b, false) }},
	{"rebuild_dense", "same op on a dense n=768 graph behind one shard, so the auto-pick takes Floyd: kernel is >=85% of the op, persistence is small",
		func(b *bench) error { return runRebuild(b, true) }},
	{"query_point", "closed-loop GET /dist through router and shard: per-request overhead of two HTTP hops is everything, the lookup is nanoseconds",
		func(b *bench) error { return runQuery(b, false) }},
	{"query_batch", "closed-loop POST /batch of 32 dist + 32 path spanning all shards: scatter/reassemble, JSON, path walks and the path cache dominate",
		func(b *bench) error { return runQuery(b, true) }},
}

// Harness constants. They are part of every result file because a number
// means nothing without them.
const (
	setupRepeats   = 3                    // fewest set-ups per untraced run; setup_s is their median
	setupFloor     = 3 * time.Second      // set up again while all set-ups together took less
	setupMax       = 7                    // most set-ups per run
	rolloutPoll    = 5 * time.Millisecond // cluster.Options.RolloutPoll and the harness's own /healthz poll
	pacedRate      = 100                  // open-loop GET /dist per second beside rebuild_sparse
	verifyReads    = 5000                 // random /dist checked through the router after each rollout
	querySegments  = 5                    // segments per untraced query run
	queryClients   = 2                    // closed-loop clients (never more than nproc)
	queryWarmup    = time.Second          // closed-loop warm-up inside set-up
	batchSize      = 64                   // queries per /batch: half dist, half path
	hotPairs       = 2048                 // fixed path pairs that fit the shard caches
	hotShare       = 0.8                  // share of batch path queries drawn from them
	serialRequests = 20000                // cap on the traced serial replay
	pathCacheSize  = 4096                 // per-backend PathCache, apspd's default
	autosaveKeep   = 3                    // generations kept by oracle.Prune, apspd's default
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N, Q1 and Q3 describe the samples Value is the median of; they are
	// absent for a count or a single measurement.
	N  int     `json:"n,omitempty"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	rec      *recorder // nil on an untraced run
	outDir   string

	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	wrong  []string // first few wrong answers; any makes the run incorrect
	nWrong int
	vals   map[string]value
}

func (b *bench) traced() bool { return b.rec != nil }

// wrongf records a wrong answer: the run will exit non-zero.
func (b *bench) wrongf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nWrong++
	if len(b.wrong) < 10 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.vals[name] = value{Value: v}
}

// setMedian reports the median of xs with its quartiles and count.
func (b *bench) setMedian(name string, xs []float64) {
	d := summarize(xs)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.vals[name] = value{Value: d.Median, N: d.N, Q1: d.Q1, Q3: d.Q3}
}

// closer is what a set-up returns: the state a workload measures on.
type closer interface{ close() }

// setUp boots the workload's state, several times on an untraced run so
// that setup_s is a median, and keeps the last: setupRepeats times, and
// on while the set-ups have taken under setupFloor together (a 0.3 s
// set-up is noisier than a 2.5 s one), at most setupMax times.
func setUp[T closer](b *bench, boot func() (T, error)) (T, error) {
	var times []float64
	for {
		t0 := time.Now()
		st, err := boot()
		if err != nil {
			return st, err
		}
		times = append(times, time.Since(t0).Seconds())
		if b.traced() {
			return st, nil // setup_s is an end-to-end metric; one state will do
		}
		if n := len(times); n >= setupMax || (n >= setupRepeats && sum(times) >= setupFloor.Seconds()) {
			b.setMedian("setup_s", times)
			return st, nil
		}
		st.close()
		// Each set-up starts from a collected heap, or the peak resident
		// set would depend on when the collector got to the last one's.
		debug.FreeOSMemory()
	}
}

// result is the detail file of one run; the last line of standard output
// carries only correct, attempted, failed and metrics.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     int              `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Wrong     []string         `json:"wrong,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Env       map[string]any   `json:"env"`
	Constants map[string]any   `json:"constants"`
}

func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

func constants() map[string]any {
	return map[string]any{
		"setup_repeats_min": setupRepeats, "setup_repeats_max": setupMax, "setup_floor_s": setupFloor.Seconds(),
		"rollout_poll_ms":   rolloutPoll.Seconds() * 1e3,
		"paced_reads_per_s": pacedRate, "verify_reads_per_rollout": verifyReads,
		"query_segments": querySegments, "query_clients": queryClients,
		"query_warmup_s": queryWarmup.Seconds(), "batch_size": batchSize,
		"hot_pairs": hotPairs, "hot_share": hotShare, "serial_requests_max": serialRequests,
		"path_cache": pathCacheSize, "autosave_keep": autosaveKeep,
	}
}

// cpuModel reads the processor name for the record; unknown is not an error.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads VmHWM, the peak resident set of this process alone
// (getrusage would fold in the RSS of whatever exec'd us).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 7, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from recorded spans")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result, trace and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload {%s} --seed N --seconds S --trace {0,1}\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	b := &bench{
		workload: wl.name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		outDir: *outDir, vals: map[string]value{},
	}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	if err := wl.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		return 1
	}
	if b.traced() {
		b.set("proc.peak_rss_mb", peakRSSMB())
		b.set("proc.cpu_s", cpuSeconds())
		path := filepath.Join(*outDir, "trace-"+wl.name+".jsonl")
		if err := writeJSONL(path, b.rec.all()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	} else {
		b.set("peak_rss_mb", peakRSSMB())
	}
	return b.report(os.Stdout, *seconds, *trace)
}

// report prints every metric of the run's kind by name with its unit,
// writes the detail file, and ends standard output with the result line.
func (b *bench) report(w *os.File, seconds float64, trace int) int {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := b.vals[d.Name]
		v.Unit = d.Unit
		metrics[d.Name] = v
		delete(b.vals, d.Name)
		if trace == 0 && v.Value <= 0 {
			// Every workload measures every end-to-end metric: a bug in the harness.
			fmt.Fprintf(os.Stderr, "benchmark: %s measured no %s\n", b.workload, d.Name)
			return 1
		}
	}
	if len(b.vals) != 0 {
		// A workload set a name the vocabulary lacks: a bug in the harness.
		var extra []string
		for k := range b.vals {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		fmt.Fprintf(os.Stderr, "benchmark: metrics outside the vocabulary: %v\n", extra)
		return 1
	}
	res := result{
		Workload: b.workload, Seed: b.seed, Seconds: seconds, Trace: trace,
		Correct: b.nWrong == 0, Attempted: b.attempted.Load(), Failed: b.failed.Load(),
		Wrong: b.wrong, Metrics: metrics, Env: environment(), Constants: constants(),
	}
	for _, d := range defs {
		v := metrics[d.Name]
		line := fmt.Sprintf("%-32s %14.6g %-6s", d.Name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", v.N, v.Q1, v.Q3)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "failed_share %d/%d\n", res.Failed, res.Attempted)

	detail, err := json.Marshal(res)
	if err == nil {
		path := filepath.Join(b.outDir, fmt.Sprintf("result-%s-trace%d.json", b.workload, trace))
		err = os.WriteFile(path, append(detail, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		for _, msg := range b.wrong {
			fmt.Fprintln(os.Stderr, "wrong answer:", msg)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d wrong answers\n", b.workload, b.nWrong)
		return 1
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wire{}}
	for name, v := range metrics {
		last.Metrics[name] = wire{v.Value, v.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
