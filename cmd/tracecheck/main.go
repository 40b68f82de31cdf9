// Command tracecheck validates a span-trace JSONL file written by apspd
// -trace (internal/trace records, one per line): every span must close
// with a positive duration, every non-root parent reference must resolve
// within its own trace, span trees must be acyclic, and children must nest
// inside their parent's time bounds (up to a configurable slack, since
// span timestamps are rounded to microseconds independently).
//
// Usage:
//
//	tracecheck [-slack 100us] [-min-traces 1] [-v] trace.jsonl
//
// Exit status 0 when every trace passes, 1 on any violation (each is
// reported on stderr), 2 on usage or read errors. CI's trace smoke step
// runs it against a live daemon's output; it is also the receipt that the
// tracer's invariants hold outside unit tests.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams: it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		slack     = fs.Duration("slack", 100*time.Microsecond, "nesting tolerance for microsecond-rounded timestamps")
		minTraces = fs.Int("min-traces", 1, "fail unless at least this many traces are present")
		verbose   = fs.Bool("v", false, "print a per-trace summary")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tracecheck [-slack D] [-min-traces N] [-v] trace.jsonl")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "tracecheck: %v\n", err)
		return 2
	}
	defer f.Close()

	byTrace := make(map[string][]trace.SpanRecord)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r trace.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s:%d: bad span record: %v\n", fs.Arg(0), line, err)
			return 2
		}
		if _, seen := byTrace[r.TraceID]; !seen {
			order = append(order, r.TraceID)
		}
		byTrace[r.TraceID] = append(byTrace[r.TraceID], r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "tracecheck: %v\n", err)
		return 2
	}

	violations := 0
	complain := func(traceID, format string, args ...any) {
		violations++
		fmt.Fprintf(stderr, "tracecheck: trace %s: %s\n", traceID, fmt.Sprintf(format, args...))
	}
	for _, id := range order {
		spans := byTrace[id]
		checkTrace(id, spans, *slack, complain)
		if *verbose {
			fmt.Fprintf(stdout, "trace %s: %d spans, root %q\n", id, len(spans), rootName(spans))
		}
	}
	if len(byTrace) < *minTraces {
		fmt.Fprintf(stderr, "tracecheck: %d trace(s), want at least %d\n", len(byTrace), *minTraces)
		violations++
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "tracecheck: %d violation(s) across %d trace(s)\n", violations, len(byTrace))
		return 1
	}
	fmt.Fprintf(stdout, "tracecheck: ok — %d trace(s), %d span(s)\n", len(byTrace), totalSpans(byTrace))
	return 0
}

// checkTrace enforces the span-tree invariants for one trace.
func checkTrace(id string, spans []trace.SpanRecord, slack time.Duration, complain func(string, string, ...any)) {
	byID := make(map[string]*trace.SpanRecord, len(spans))
	roots := 0
	for i := range spans {
		s := &spans[i]
		if s.SpanID == "" {
			complain(id, "span %q has no span ID", s.Name)
			continue
		}
		if dup, ok := byID[s.SpanID]; ok {
			complain(id, "span ID %s reused by %q and %q", s.SpanID, dup.Name, s.Name)
		}
		byID[s.SpanID] = s
		if s.Parent == "" {
			roots++
		}
		if s.DurUS <= 0 {
			complain(id, "span %q (%s) did not close: duration %dus", s.Name, s.SpanID, s.DurUS)
		}
		if s.Attrs["unclosed"] == "true" {
			complain(id, "span %q (%s) was flagged unclosed at emit time", s.Name, s.SpanID)
		}
	}
	if roots != 1 {
		complain(id, "%d root spans, want exactly 1", roots)
	}
	slackUS := slack.Microseconds()
	for i := range spans {
		s := &spans[i]
		if s.Parent == "" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			complain(id, "span %q (%s) references missing parent %s", s.Name, s.SpanID, s.Parent)
			continue
		}
		if s.StartUS+slackUS < p.StartUS {
			complain(id, "span %q starts %dus before its parent %q", s.Name, p.StartUS-s.StartUS, p.Name)
		}
		if s.StartUS+s.DurUS > p.StartUS+p.DurUS+slackUS {
			complain(id, "span %q ends %dus after its parent %q", s.Name,
				(s.StartUS+s.DurUS)-(p.StartUS+p.DurUS), p.Name)
		}
		// Walk to the root; a lineage longer than the trace means a cycle.
		steps := 0
		for cur := s; cur.Parent != ""; {
			next, ok := byID[cur.Parent]
			if !ok {
				break // missing parent already reported
			}
			cur = next
			if steps++; steps > len(spans) {
				complain(id, "span %q (%s) sits on a parent cycle", s.Name, s.SpanID)
				break
			}
		}
	}
}

func rootName(spans []trace.SpanRecord) string {
	for _, s := range spans {
		if s.Parent == "" {
			return s.Name
		}
	}
	names := make([]string, 0, len(spans))
	for _, s := range spans {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		return names[0]
	}
	return ""
}

func totalSpans(byTrace map[string][]trace.SpanRecord) int {
	n := 0
	for _, spans := range byTrace {
		n += len(spans)
	}
	return n
}
