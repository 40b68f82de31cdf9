package oracle

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// batchResp is the /batch 200 answer as encoding/json reads and writes it:
// the reference AppendResults is held to, and what the server tests
// decode answers into.
type batchResp struct {
	Gen     uint64   `json:"gen"`
	Results []Answer `json:"results"`
}

// hardStrings are strings whose JSON escaping has a rule of its own: every
// byte value on its own, HTML-sensitive bytes, U+2028 and U+2029, and
// invalid UTF-8 (a lone continuation byte, a truncated sequence, an
// encoded surrogate, an overlong encoding).
func hardStrings() []string {
	s := []string{
		"", "plain", `<a href="x">&amp;</a>`, `back\slash "quoted"`,
		"line sep para", "‧‪", "é日本\U0001F600",
		"\x80", "a\xe6\x97", "\xed\xa0\x80", "\xc0\xaf", "\xff\xfe", "\x7f",
		"\b\f\n\r\t\x00\x1f",
	}
	for c := 0; c < 256; c++ {
		s = append(s, "a"+string([]byte{byte(c)})+"z")
	}
	return s
}

// TestAppendAnswerMatchesMarshal holds AppendAnswer to json.Marshal on
// every optional field present and absent, extreme integers, and error
// strings with each escaping rule.
func TestAppendAnswerMatchesMarshal(t *testing.T) {
	zero, neg, big := int64(0), int64(math.MinInt64), int64(math.MaxInt64)
	var answers []Answer
	for _, d := range []*int64{nil, &zero, &neg, &big} {
		for _, p := range [][]int{nil, {}, {7}, {0, -1, math.MaxInt, math.MinInt}} {
			answers = append(answers,
				Answer{Src: 3, Dst: 9, Reachable: true, Dist: d, Path: p},
				Answer{Src: math.MinInt, Dst: math.MaxInt, Dist: d, Path: p, Status: -1},
				Answer{Src: -1, Dst: 0, Reachable: true, Dist: d, Path: p, Error: "x", Status: 502})
		}
	}
	for _, e := range hardStrings() {
		answers = append(answers, Answer{Src: 1, Dst: 2, Error: e, Status: 400})
	}
	for _, a := range answers {
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendAnswer([]byte("prefix"), a); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendAnswer(%+v)\n got %s\nwant prefix%s", a, got, want)
		}
	}
}

// TestAppendBatchMatchesMarshal holds the router's sub-batch encoder to
// json.Marshal, kinds that need escaping included.
func TestAppendBatchMatchesMarshal(t *testing.T) {
	qs := []Query{{Src: 0, Dst: 1}, {Kind: "path", Src: math.MaxInt, Dst: math.MinInt}, {Kind: "dist", Src: -5}}
	for _, k := range hardStrings() {
		qs = append(qs, Query{Kind: k, Src: 2, Dst: 3})
	}
	for n := 1; n <= len(qs); n++ {
		want, err := json.Marshal(Batch{Queries: qs[:n]})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBatch(nil, qs[:n]); !bytes.Equal(got, want) {
			t.Fatalf("AppendBatch of %d queries\n got %s\nwant %s", n, got, want)
		}
	}
}

// TestAppendResultsMatchesEncoder holds the /batch 200 body to what
// json.Encoder writes for batchResp, and SplitResults to json.Unmarshal on
// it.
func TestAppendResultsMatchesEncoder(t *testing.T) {
	d := int64(4)
	for _, resp := range []batchResp{
		{Gen: 0, Results: []Answer{{Src: 1}}},
		{Gen: math.MaxUint64, Results: []Answer{{Src: 1, Dst: 2, Reachable: true, Dist: &d, Path: []int{1, 5, 2}}, {Error: "a<b", Status: 404}}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := AppendResults(nil, resp.Gen, len(resp.Results), func(b []byte, i int) []byte {
			return AppendAnswer(b, resp.Results[i])
		})
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendResults\n got %s\nwant %s", got, want.Bytes())
		}
		gen, results, ok := SplitResults(nil, got)
		var ref struct {
			Gen     uint64            `json:"gen"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(got, &ref); !ok || err != nil || gen != ref.Gen || len(results) != len(ref.Results) {
			t.Fatalf("SplitResults: gen %d, %d results, %v; json.Unmarshal: gen %d, %d results, %v", gen, len(results), ok, ref.Gen, len(ref.Results), err)
		}
		for i := range results {
			if !bytes.Equal(results[i], ref.Results[i]) {
				t.Fatalf("SplitResults result %d is %s, json.Unmarshal's %s", i, results[i], ref.Results[i])
			}
		}
	}
}

// TestParseBatchTakesCanonicalBodies: the bodies clients and the router
// send, compact or indented, are read in one pass to what encoding/json
// decodes; bodies whose reading needs encoding/json's rules are left to it.
func TestParseBatchTakesCanonicalBodies(t *testing.T) {
	qs := []Query{{Src: 0, Dst: 1}, {Kind: "path", Src: 7, Dst: 3}, {Kind: "dist", Src: math.MinInt, Dst: math.MaxInt}, {Kind: "teleport"}}
	type always struct { // a client that always sends kind
		Kind string `json:"kind"`
		Src  int    `json:"src"`
		Dst  int    `json:"dst"`
	}
	var plain []always
	for _, q := range qs {
		plain = append(plain, always(q))
	}
	indented, err := json.MarshalIndent(map[string][]always{"queries": plain}, "\r", "\t ")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{AppendBatch(nil, qs), indented, []byte(`{"queries":[{"dst":-0,"src":5},{}]}`)} {
		var want Batch
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		got, ok := parseBatch(body)
		if !ok || !slices.Equal(got, want.Queries) {
			t.Fatalf("parseBatch(%s) = %+v, %v; encoding/json reads %+v", body, got, ok, want.Queries)
		}
	}
	for _, body := range []string{
		`{"queries":[{"SRC":1}]}`, `{"queries":[{"kind":"p\u0061th"}]}`, `{"queries":[{"src":1,"src":2}]}`,
		`{"queries":[{"src":1e2}]}`, `{"queries":[{"src":9223372036854775808}]}`, `{"queries":[{"kind":null}]}`,
		`{"queries":[{"hops":1}]}`, `{"queries":[]} x`, `{"queries":[{"kind":"é"}]}`, `{"queries":null}`,
	} {
		if got, ok := parseBatch([]byte(body)); ok {
			t.Fatalf("parseBatch(%s) = %+v, want it left to encoding/json", body, got)
		}
	}
}

// TestReadBodyReservesLittleBeforeBytesArrive: a declared Content-Length
// sizes the read buffer only up to 64 KiB, and a body longer than its
// declared length is still read whole.
func TestReadBodyReservesLittleBeforeBytesArrive(t *testing.T) {
	for _, c := range []struct {
		body     string
		declared int64
		maxCap   int
	}{
		{`{"queries":[]}`, maxBatchBytes, 64<<10 + 1},
		{`{"queries":[]}`, 14, 15},
		{`{"queries":[]}`, -1, 513},
		{strings.Repeat(" ", 3000), 10, 1 << 13},
	} {
		b, err := readBody(strings.NewReader(c.body), c.declared)
		if err != nil || string(b) != c.body || cap(b) > c.maxCap {
			t.Fatalf("readBody(%d bytes, declared %d) = %d bytes, cap %d, %v; want the body, cap <= %d",
				len(c.body), c.declared, len(b), cap(b), err, c.maxCap)
		}
	}
}
