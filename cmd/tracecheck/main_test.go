package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestCheckTrace holds checkTrace to one complaint per defect: a well-formed
// tree (a child ending inside the slack included) passes silently, and each
// broken tree draws exactly the complaints naming its defect.
func TestCheckTrace(t *testing.T) {
	span := func(id, parent string, start, dur int64) trace.SpanRecord {
		return trace.SpanRecord{TraceID: "t1", SpanID: id, Parent: parent, Name: "s" + id, StartUS: start, DurUS: dur}
	}
	root := span("r", "", 1000, 500)
	for _, tc := range []struct {
		name  string
		spans []trace.SpanRecord
		want  []string // one substring per expected complaint, in order
	}{
		{"well-formed", []trace.SpanRecord{root,
			span("a", "r", 1000, 200), span("b", "a", 1100, 100),
			span("c", "r", 1300, 250), // ends 50us past the root: inside the slack
		}, nil},
		{"orphan parent", []trace.SpanRecord{root, span("a", "gone", 1100, 100)},
			[]string{`span "sa" (a) references missing parent gone`}},
		{"cycle", []trace.SpanRecord{root, span("a", "b", 1100, 100), span("b", "a", 1100, 100)},
			[]string{`span "sa" (a) sits on a parent cycle`, `span "sb" (b) sits on a parent cycle`}},
		{"zero duration", []trace.SpanRecord{root, span("a", "r", 1100, 0)},
			[]string{`span "sa" (a) did not close: duration 0us`}},
		{"child outside its parent", []trace.SpanRecord{root, span("a", "r", 1400, 250)},
			[]string{`span "sa" ends 150us after its parent "sr"`}},
	} {
		var got []string
		checkTrace("t1", tc.spans, 100*time.Microsecond, func(id, format string, args ...any) {
			if id != "t1" {
				t.Errorf("%s: complaint filed under trace %q", tc.name, id)
			}
			got = append(got, fmt.Sprintf(format, args...))
		})
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d complaints %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: complaint %d is %q, want %q", tc.name, i, got[i], w)
			}
		}
	}
}

// TestRunExitStatus drives the command end to end: 0 for a well-formed
// file, 1 for a violation (too few traces), 2 for unreadable input (a
// malformed record) and for a usage error (no file argument).
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	record := func(s trace.SpanRecord) string {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	good := write("good.jsonl",
		record(trace.SpanRecord{TraceID: "t1", SpanID: "r", Name: "root", StartUS: 1000, DurUS: 500}),
		record(trace.SpanRecord{TraceID: "t1", SpanID: "a", Parent: "r", Name: "child", StartUS: 1100, DurUS: 100}))
	malformed := write("malformed.jsonl", record(trace.SpanRecord{TraceID: "t1", SpanID: "r", Name: "root", StartUS: 1, DurUS: 5}), "{not json")
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stdout string // substring of stdout; "" for none
		stderr string // substring of stderr; "" for none
	}{
		{"good file", []string{"-v", good}, 0, "tracecheck: ok — 1 trace(s), 2 span(s)", ""},
		{"malformed record", []string{malformed}, 2, "", "malformed.jsonl:2: bad span record"},
		{"too few traces", []string{"-min-traces", "2", good}, 1, "", "1 trace(s), want at least 2"},
		{"missing argument", nil, 2, "", "usage: tracecheck"},
		{"unknown flag", []string{"-bogus", good}, 2, "", "flag provided but not defined"},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, 2, "", "absent.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%s: exit status %d, want %d (stderr %q)", tc.name, got, tc.status, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%s: stdout %q, want it to contain %q", tc.name, stdout.String(), tc.stdout)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q, want it to contain %q", tc.name, stderr.String(), tc.stderr)
		}
	}
}
