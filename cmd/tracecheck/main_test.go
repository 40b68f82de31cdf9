package main

import (
	"fmt"
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
