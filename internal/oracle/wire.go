package oracle

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// The query surface's wire contract, declared once. The Server answers
// with it and the cluster router, which serves the same surface, reads
// requests, refuses them and synthesizes batch entries through the same
// functions and types, so a client sees one set of limits, one error body
// and one entry shape whichever of the two it talks to.

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
func ReadBatch(w http.ResponseWriter, r *http.Request) ([]Query, int) {
	var b Batch
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes)).Decode(&b)
	switch {
	case err != nil:
		return nil, WriteErr(w, http.StatusBadRequest, "bad batch body: %v", err)
	case len(b.Queries) == 0:
		return nil, WriteErr(w, http.StatusBadRequest, "empty batch")
	case len(b.Queries) > batchBudget:
		return nil, WriteErr(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds budget %d", len(b.Queries), batchBudget)
	}
	return b.Queries, 0
}

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
