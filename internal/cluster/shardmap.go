// Package cluster is the multi-process scale-out layer over the apspd
// serving daemon: a versioned shard map that partitions the source
// dimension across N backends, and a stateless scatter-gather router that
// serves the whole apspd query surface (/dist, /path, /batch, /healthz,
// /metrics, /admin/recompute) against them.
//
// The algorithmic justification is the k-source framing of Agarwal &
// Ramachandran: a backend owning a contiguous source range computes a
// complete, independently valid k-source shortest-path result, so the
// cluster answer for any (s, v) query is exactly the single-process
// answer of whichever backend owns s. The router adds no approximation —
// only routing, retries, hedging across replicas (internal/client), and
// generation bookkeeping so a rolling recompute never mixes generations
// inside one answer.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// MapVersion is the shard-map schema version this package writes and the
// only one it accepts; bump it on any incompatible layout change.
const MapVersion = 1

// Shard is one source-range assignment: the backends listed in Replicas
// each own every source s with Lo <= s < Hi.
type Shard struct {
	ID int `json:"id"`
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Replicas are base URLs of apspd backends serving this shard, e.g.
	// "http://127.0.0.1:8081". Reads are hedged across them; at least one
	// must be live for the shard to be available.
	Replicas []string `json:"replicas"`
}

// Contains reports whether the shard owns source s.
func (s *Shard) Contains(src int) bool { return src >= s.Lo && src < s.Hi }

// K is the number of sources the shard owns.
func (s *Shard) K() int { return s.Hi - s.Lo }

// Map is the versioned cluster layout: which backend owns which sources
// of an n-node graph. It is JSON-serializable (cmd/apsprouter -map) and
// fingerprint-checked against the backends' /healthz at boot, so a router
// can refuse to scatter over backends serving a different graph.
type Map struct {
	Version int `json:"version"`
	N       int `json:"n"`
	// Fingerprint, when non-empty, is the graph fingerprint every backend
	// must report on /healthz (the %016x form checkpoint.Fingerprint
	// renders to there). Empty skips the check.
	Fingerprint string  `json:"fingerprint,omitempty"`
	Shards      []Shard `json:"shards"`
}

// Range returns the balanced contiguous source range [lo, hi) of shard k
// in an nShards-way partition of n sources — the same arithmetic apspd
// -shard k/N applies, so a map built here and a backend started with the
// matching flag agree on ownership by construction.
func Range(n, k, nShards int) (lo, hi int) {
	return k * n / nShards, (k + 1) * n / nShards
}

// NewContiguous builds a contiguous map: replicaSets[k] are the replicas
// of shard k, and shard k owns Range(n, k, len(replicaSets)).
func NewContiguous(n int, fingerprint string, replicaSets [][]string) (*Map, error) {
	if len(replicaSets) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	m := &Map{Version: MapVersion, N: n, Fingerprint: fingerprint}
	for k, reps := range replicaSets {
		lo, hi := Range(n, k, len(replicaSets))
		m.Shards = append(m.Shards, Shard{ID: k, Lo: lo, Hi: hi, Replicas: append([]string(nil), reps...)})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the map invariants: version, a positive node count,
// shards that tile [0, N) exactly (no gap, no overlap), unique IDs, and
// at least one replica per shard.
func (m *Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("cluster: shard map version %d, want %d", m.Version, MapVersion)
	}
	if m.N <= 0 {
		return fmt.Errorf("cluster: shard map n=%d must be positive", m.N)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: shard map has no shards")
	}
	byLo := append([]Shard(nil), m.Shards...)
	sort.Slice(byLo, func(i, j int) bool { return byLo[i].Lo < byLo[j].Lo })
	ids := make(map[int]bool, len(m.Shards))
	next := 0
	for _, s := range byLo {
		if ids[s.ID] {
			return fmt.Errorf("cluster: duplicate shard id %d", s.ID)
		}
		ids[s.ID] = true
		if s.Lo != next {
			return fmt.Errorf("cluster: shard %d starts at %d, want %d (sources must tile [0,%d) exactly)", s.ID, s.Lo, next, m.N)
		}
		if s.Hi <= s.Lo {
			return fmt.Errorf("cluster: shard %d has empty range [%d,%d)", s.ID, s.Lo, s.Hi)
		}
		if len(s.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %d has no replicas", s.ID)
		}
		for _, r := range s.Replicas {
			if !strings.HasPrefix(r, "http://") && !strings.HasPrefix(r, "https://") {
				return fmt.Errorf("cluster: shard %d replica %q is not an http(s) base URL", s.ID, r)
			}
		}
		next = s.Hi
	}
	if next != m.N {
		return fmt.Errorf("cluster: shards cover [0,%d) but the map declares n=%d", next, m.N)
	}
	return nil
}

// ShardFor returns the shard owning source src (nil when src is outside
// [0, N) — the map tiles the range, so inside it there is always one).
func (m *Map) ShardFor(src int) *Shard {
	if src < 0 || src >= m.N {
		return nil
	}
	i := sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].Hi > src })
	if i < len(m.Shards) && m.Shards[i].Contains(src) {
		return &m.Shards[i]
	}
	// Shards may be listed out of order; fall back to a scan.
	for i := range m.Shards {
		if m.Shards[i].Contains(src) {
			return &m.Shards[i]
		}
	}
	return nil
}

// Load reads and validates a shard map from a JSON file.
func Load(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing shard map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &m, nil
}

// FormatShardID renders the canonical shard identity "k/N" that apspd
// -shard accepts and stamps into the ShardHeader.
func FormatShardID(k, nShards int) string {
	return strconv.Itoa(k) + "/" + strconv.Itoa(nShards)
}

// ParseShardID parses "k/N" with 0 <= k < N.
func ParseShardID(s string) (k, nShards int, err error) {
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("cluster: bad shard id %q (want k/N)", s)
	}
	k, err1 := strconv.Atoi(ks)
	nShards, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil || nShards < 1 || k < 0 || k >= nShards {
		return 0, 0, fmt.Errorf("cluster: bad shard id %q (want k/N with 0 <= k < N)", s)
	}
	return k, nShards, nil
}
