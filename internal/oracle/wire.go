package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// The query surface's wire contract, declared once. The Server answers
// with it and the cluster router, which serves the same surface, reads
// requests, refuses them and synthesizes batch entries through the same
// functions and types, so a client sees one set of limits, one error body
// and one entry shape whichever of the two it talks to.
//
// /batch, the surface's bulk path, has its own codec below: ReadBatch,
// AppendBatch, AppendAnswer, AppendResults and SplitResults read and write
// its bodies without reflection, byte for byte as encoding/json does.
// encoding/json stays the reference: it reads every body the one-pass
// readers do not take, and every refusal text is its own.

// Query is one distance or path question: a /batch entry, or what GET
// /dist and GET /path carry in their query string.
type Query struct {
	Kind string `json:"kind,omitempty"` // "dist" (default) | "path"
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
}

// Answer is one /batch result. A failed query carries Error and Status
// instead of the payload fields.
type Answer struct {
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Reachable bool   `json:"reachable"`
	Dist      *int64 `json:"dist,omitempty"`
	Path      []int  `json:"path,omitempty"`
	Error     string `json:"error,omitempty"`
	Status    int    `json:"status,omitempty"`
}

// Fail is q's failed answer.
func (q Query) Fail(status int, format string, args ...any) Answer {
	return Answer{Src: q.Src, Dst: q.Dst, Error: fmt.Sprintf(format, args...), Status: status}
}

// WriteError writes a failed answer as a GET /dist or /path error
// response. The one answer failure that clears up by itself, the 503 of
// the load-shedding rung, tells the client when to come back.
func (a Answer) WriteError(w http.ResponseWriter) int {
	if a.Status == http.StatusServiceUnavailable {
		return WriteRetry(w, a.Status, "%s", a.Error)
	}
	return WriteErr(w, a.Status, "%s", a.Error)
}

// distResp is the /dist answer; Dist is omitted when unreachable.
type distResp struct {
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Reachable bool   `json:"reachable"`
	Dist      *int64 `json:"dist,omitempty"`
	Gen       uint64 `json:"gen"`
}

// pathResp is the /path answer; Hops is the edge count of Path.
type pathResp struct {
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	Dist int64  `json:"dist"`
	Hops int    `json:"hops"`
	Path []int  `json:"path"`
	Gen  uint64 `json:"gen"`
}

// Batch is the POST /batch body.
type Batch struct {
	Queries []Query `json:"queries"`
}

// ReadQuery reads a GET /dist or /path request's src and dst. When one
// does not parse it has written the 400 and returns its status.
func ReadQuery(w http.ResponseWriter, r *http.Request, kind string) (Query, int) {
	params := r.URL.Query()
	src, err := strconv.Atoi(params.Get("src"))
	if err != nil {
		return Query{}, WriteErr(w, http.StatusBadRequest, "bad or missing src: %v", err)
	}
	dst, err := strconv.Atoi(params.Get("dst"))
	if err != nil {
		return Query{}, WriteErr(w, http.StatusBadRequest, "bad or missing dst: %v", err)
	}
	return Query{Kind: kind, Src: src, Dst: dst}, 0
}

// ReadBatch reads a POST /batch body and holds it to the serving limits:
// at most maxBatchBytes, at least one query, at most batchBudget of them.
// A body that does not decode as a whole — a mistyped value in any query
// included — is refused. On a refusal it has written the error and
// returns its status.
//
// The body is read once, and the shape clients and the router send is
// parsed in one pass (parseBatch). json.Decoder reads every other body,
// and every body the size limit or the connection cut short, from the
// same bytes followed by the same read error: it decodes what it would
// have decoded streaming, and refuses with the same text.
func ReadBatch(w http.ResponseWriter, r *http.Request) ([]Query, int) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBatchBytes), r.ContentLength)
	var queries []Query
	ok := false
	if err == nil {
		queries, ok = parseBatch(body)
	}
	if !ok {
		var rd io.Reader = bytes.NewReader(body)
		if err != nil {
			rd = io.MultiReader(rd, failReader{err})
		}
		var b Batch
		if err := json.NewDecoder(rd).Decode(&b); err != nil {
			return nil, WriteErr(w, http.StatusBadRequest, "bad batch body: %v", err)
		}
		queries = b.Queries
	}
	switch {
	case len(queries) == 0:
		return nil, WriteErr(w, http.StatusBadRequest, "empty batch")
	case len(queries) > batchBudget:
		return nil, WriteErr(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds budget %d", len(queries), batchBudget)
	}
	return queries, 0
}

// readBody reads r to its end into a buffer sized from the request's
// Content-Length (size, -1 when unknown), though never above 64 KiB: a
// declared length reserves no more than that before its bytes arrive. It
// returns the bytes read and the read error that ended it, nil for io.EOF.
func readBody(r io.Reader, size int64) ([]byte, error) {
	switch {
	case size < 0:
		size = 512
	case size > 64<<10:
		size = 64 << 10
	}
	b := make([]byte, 0, size+1) // +1: room for the read that reports io.EOF
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// failReader fails every read with err.
type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) { return 0, f.err }

type errResp struct {
	Error string `json:"error"`
}

// WriteErr writes the error body every refusal on the query surface
// carries and returns status.
func WriteErr(w http.ResponseWriter, status int, format string, args ...any) int {
	return WriteJSON(w, status, errResp{Error: fmt.Sprintf(format, args...)})
}

// WriteRetry is WriteErr plus a Retry-After header — every shed and
// degraded refusal tells the client when to come back, so a well-behaved
// retry loop (internal/client honors the header) backs off in step with
// the server's load instead of hammering it.
func WriteRetry(w http.ResponseWriter, status int, format string, args ...any) int {
	w.Header().Set("Retry-After", retryAfter)
	return WriteErr(w, status, format, args...)
}

// WriteJSON writes v as the JSON body of a status response and returns
// status.
func WriteJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return status
}

// WriteBody writes an encoded JSON body as a status response and returns
// status.
func WriteBody(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return status
}

// AppendBatch appends the /batch request body for a non-empty qs: what
// encoding/json writes for Batch{Queries: qs}.
func AppendBatch(b []byte, qs []Query) []byte {
	b = append(b, `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if q.Kind != "" {
			b = append(b, `"kind":`...)
			b = appendString(b, q.Kind)
			b = append(b, ',')
		}
		b = append(b, `"src":`...)
		b = strconv.AppendInt(b, int64(q.Src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(q.Dst), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// AppendAnswer appends a as one /batch result: what encoding/json writes
// for it.
func AppendAnswer(b []byte, a Answer) []byte {
	b = append(b, `{"src":`...)
	b = strconv.AppendInt(b, int64(a.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(a.Dst), 10)
	b = append(b, `,"reachable":`...)
	b = strconv.AppendBool(b, a.Reachable)
	if a.Dist != nil {
		b = append(b, `,"dist":`...)
		b = strconv.AppendInt(b, *a.Dist, 10)
	}
	if len(a.Path) > 0 {
		b = append(b, `,"path":[`...)
		for i, v := range a.Path {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if a.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, a.Error)
	}
	if a.Status != 0 {
		b = append(b, `,"status":`...)
		b = strconv.AppendInt(b, int64(a.Status), 10)
	}
	return append(b, '}')
}

// AppendResults appends the /batch 200 body, {"gen":N,"results":[…]} and
// the newline json.Encoder ends a value with, for n results that entry
// appends in order.
func AppendResults(b []byte, gen uint64, n int, entry func(b []byte, i int) []byte) []byte {
	b = append(b, `{"gen":`...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, `,"results":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = entry(b, i)
	}
	return append(b, "]}\n"...)
}

const hex = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json escapes
// it: '"' and '\\' by a backslash; \b, \f, \n, \r and \t by their short
// forms; other control bytes and '<', '>' and '&' as \u00XX; U+2028 and
// U+2029 as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// scanner is a cursor over a JSON body for the one-pass readers. token,
// key, end and the readers of whole values skip the whitespace before
// what they read; digits, str, lit, num and run start at the cursor.
type scanner struct {
	b []byte
	i int
}

// parseBatch parses a canonical /batch body: one object whose only key is
// "queries", an array of objects with at most one each of "kind" (a string
// of printable ASCII without escapes), "src" and "dst" (integers that fit
// an int), in any order. On any other body it reports false.
func parseBatch(body []byte) ([]Query, bool) {
	s := scanner{b: body}
	if !s.token('{') || !s.key("queries") || !s.token('[') {
		return nil, false
	}
	// Every query is one object: the count of '{' (the body's own
	// included) sizes the slice.
	queries := make([]Query, 0, min(bytes.Count(body, []byte{'{'}), batchBudget+1))
	for !s.token(']') {
		if len(queries) > 0 && !s.token(',') {
			return nil, false
		}
		q, ok := s.query()
		if !ok {
			return nil, false
		}
		queries = append(queries, q)
	}
	return queries, s.token('}') && s.end()
}

// query reads one {"kind","src","dst"} object.
func (s *scanner) query() (Query, bool) {
	var q Query
	if !s.token('{') {
		return q, false
	}
	var seen [3]bool
	for !s.token('}') {
		if seen != [3]bool{} && !s.token(',') {
			return q, false
		}
		field, ok := 0, false
		switch {
		case s.key("kind"):
			q.Kind, ok = s.plainString()
		case s.key("src"):
			field = 1
			q.Src, ok = s.int()
		case s.key("dst"):
			field = 2
			q.Dst, ok = s.int()
		}
		if !ok || seen[field] {
			return q, false
		}
		seen[field] = true
	}
	return q, true
}

// SplitResults splits a shard's /batch 200 body, in one validating pass,
// into its generation and its results appended to dst, each the raw bytes
// of one entry sliced from body. It takes the shape AppendResults writes,
// with whitespace allowed between tokens: "gen" then "results", a
// generation that is a uint64 integer, and results that are valid JSON
// nested at most maxDepth deep. On any other body it reports false;
// json.Unmarshal is the reader for those.
func SplitResults(dst []json.RawMessage, body []byte) (uint64, []json.RawMessage, bool) {
	s := scanner{b: body}
	if !s.token('{') || !s.key("gen") {
		return 0, nil, false
	}
	s.ws()
	gen, ok := s.digits()
	if !ok || !s.token(',') || !s.key("results") || !s.token('[') {
		return 0, nil, false
	}
	results := dst
	for !s.token(']') {
		if len(results) > len(dst) && !s.token(',') {
			return 0, nil, false
		}
		s.ws()
		start := s.i
		if !s.value() {
			return 0, nil, false
		}
		results = append(results, body[start:s.i:s.i])
	}
	return gen, results, s.token('}') && s.end()
}

// maxDepth bounds the nesting SplitResults validates.
const maxDepth = 64

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token reads c if it comes next.
func (s *scanner) token(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// key reads "name" and the colon after it if they come next, and nothing
// otherwise.
func (s *scanner) key(name string) bool {
	s.ws()
	at, end := s.i, s.i+len(name)+2
	if end > len(s.b) || s.b[at] != '"' || string(s.b[at+1:end-1]) != name || s.b[end-1] != '"' {
		return false
	}
	s.i = end
	if !s.token(':') {
		s.i = at
		return false
	}
	return true
}

// plainString reads a string of printable ASCII other than '"' and '\\',
// which encoding/json decodes to its own bytes. "dist" and "path" cost no
// allocation.
func (s *scanner) plainString() (string, bool) {
	if !s.token('"') {
		return "", false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			raw := s.b[start:s.i]
			s.i++
			switch string(raw) {
			case "dist":
				return "dist", true
			case "path":
				return "path", true
			}
			return string(raw), true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return "", false
		}
	}
	return "", false
}

// int reads a JSON integer that fits an int.
func (s *scanner) int() (int, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	u, ok := s.digits()
	limit, v := uint64(math.MaxInt64), int64(u)
	if neg {
		limit, v = limit+1, -v
	}
	return int(v), ok && u <= limit && int64(int(v)) == v
}

// digits reads the digits of a JSON integer with no sign, fraction or
// exponent ("0", or digits not starting with 0) and reports whether there
// were some and their value fits a uint64.
func (s *scanner) digits() (uint64, bool) {
	start := s.i
	var u uint64
	fits := true
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		fits = fits && u <= (math.MaxUint64-d)/10
		u = u*10 + d
	}
	n := s.i - start
	return u, fits && n > 0 && (s.b[start] != '0' || n == 1)
}

// value skips one JSON value nested at most maxDepth deep and reports
// whether it was one.
func (s *scanner) value() bool {
	var closer [maxDepth]byte // what closes each enclosing container
	depth := 0
	for {
		// At the start of a value.
		s.ws()
		if s.i >= len(s.b) {
			return false
		}
		switch c := s.b[s.i]; c {
		case '{', '[':
			s.i++
			if s.token(c + 2) { // '}' and ']'
				break
			}
			if depth == maxDepth {
				return false
			}
			closer[depth] = c + 2
			depth++
			if c == '{' && !s.member() {
				return false
			}
			continue
		case '"':
			if !s.str() {
				return false
			}
		case 't':
			if !s.lit("true") {
				return false
			}
		case 'f':
			if !s.lit("false") {
				return false
			}
		case 'n':
			if !s.lit("null") {
				return false
			}
		default:
			if !s.num() {
				return false
			}
		}
		// After a value: close the containers that end here, or go on to
		// the next element.
		for {
			if depth == 0 {
				return true
			}
			if s.token(',') {
				if closer[depth-1] == '}' && !s.member() {
					return false
				}
				break
			}
			if !s.token(closer[depth-1]) {
				return false
			}
			depth--
		}
	}
}

// member reads an object member's key and colon.
func (s *scanner) member() bool {
	s.ws()
	return s.i < len(s.b) && s.b[s.i] == '"' && s.str() && s.token(':')
}

// str skips a string that starts at the cursor: no control bytes, and only
// the escapes JSON defines.
func (s *scanner) str() bool {
	for s.i++; s.i < len(s.b); {
		c := s.b[s.i]
		s.i++
		switch {
		case c == '"':
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if s.i == len(s.b) {
				return false
			}
			e := s.b[s.i]
			s.i++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if s.i+4 > len(s.b) {
					return false
				}
				for _, h := range s.b[s.i : s.i+4] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return false
					}
				}
				s.i += 4
			default:
				return false
			}
		}
	}
	return false
}

// lit skips the literal word.
func (s *scanner) lit(word string) bool {
	if string(s.b[s.i:min(s.i+len(word), len(s.b))]) != word {
		return false
	}
	s.i += len(word)
	return true
}

// num skips a number: an optional minus, integer digits, then an optional
// fraction and exponent.
func (s *scanner) num() bool {
	if s.b[s.i] == '-' {
		s.i++
	}
	start := s.i
	if !s.run() || s.b[start] == '0' && s.i-start > 1 {
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.run() {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.run() {
			return false
		}
	}
	return true
}

// run skips one or more digits.
func (s *scanner) run() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}
