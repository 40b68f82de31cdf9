package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRangeTiles(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{10, 3}, {7, 7}, {100, 1}, {64, 5}} {
		next := 0
		for k := 0; k < tc.shards; k++ {
			lo, hi := Range(tc.n, k, tc.shards)
			if lo != next {
				t.Fatalf("Range(%d,%d,%d) starts at %d, want %d", tc.n, k, tc.shards, lo, next)
			}
			if hi < lo {
				t.Fatalf("Range(%d,%d,%d) = [%d,%d) inverted", tc.n, k, tc.shards, lo, hi)
			}
			// Balanced: every shard within one source of n/shards.
			if w := hi - lo; w < tc.n/tc.shards || w > tc.n/tc.shards+1 {
				t.Fatalf("Range(%d,%d,%d) width %d unbalanced", tc.n, k, tc.shards, w)
			}
			next = hi
		}
		if next != tc.n {
			t.Fatalf("Range(%d,*,%d) tiles to %d, want %d", tc.n, tc.shards, next, tc.n)
		}
	}
}

func TestNewContiguousAndShardFor(t *testing.T) {
	m, err := NewContiguous(10, "abc", [][]string{
		{"http://a:1", "http://a:2"}, {"http://b:1"}, {"http://c:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 10; src++ {
		s := m.ShardFor(src)
		if s == nil || !s.Contains(src) {
			t.Fatalf("ShardFor(%d) = %+v", src, s)
		}
		lo, hi := Range(10, s.ID, 3)
		if s.Lo != lo || s.Hi != hi {
			t.Fatalf("shard %d range [%d,%d), Range says [%d,%d)", s.ID, s.Lo, s.Hi, lo, hi)
		}
	}
	if m.ShardFor(-1) != nil || m.ShardFor(10) != nil {
		t.Fatal("ShardFor accepted out-of-range sources")
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Map {
		m, err := NewContiguous(6, "", [][]string{{"http://a:1"}, {"http://b:1"}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name   string
		mutate func(*Map)
	}{
		{"version", func(m *Map) { m.Version = 99 }},
		{"gap", func(m *Map) { m.Shards[1].Lo = 4 }},
		{"overlap", func(m *Map) { m.Shards[1].Lo = 2 }},
		{"short", func(m *Map) { m.Shards[1].Hi = 5 }},
		{"empty shard", func(m *Map) { m.Shards[0].Hi = m.Shards[0].Lo; m.Shards[1].Lo = 0 }},
		{"dup id", func(m *Map) { m.Shards[1].ID = m.Shards[0].ID }},
		{"no replicas", func(m *Map) { m.Shards[0].Replicas = nil }},
		{"bad url", func(m *Map) { m.Shards[0].Replicas = []string{"a:1"} }},
		{"no shards", func(m *Map) { m.Shards = nil }},
		{"bad n", func(m *Map) { m.N = 0; m.Shards = nil }},
	}
	for _, tc := range cases {
		m := base()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken map", tc.name)
		}
	}
}

// writeMap writes m to path as the JSON a deployment's map file holds.
func writeMap(t *testing.T, m *Map, path string) {
	t.Helper()
	data, err := json.Marshal(m)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	m, err := NewContiguous(12, "00deadbeef00cafe", [][]string{
		{"http://127.0.0.1:8081"}, {"http://127.0.0.1:8082", "http://127.0.0.1:8083"},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "map.json")
	writeMap(t, m, path)
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != m.N || got.Fingerprint != m.Fingerprint || len(got.Shards) != len(m.Shards) {
		t.Fatalf("round trip changed the map: %+v vs %+v", got, m)
	}
	for i := range m.Shards {
		if got.Shards[i].Lo != m.Shards[i].Lo || got.Shards[i].Hi != m.Shards[i].Hi ||
			len(got.Shards[i].Replicas) != len(m.Shards[i].Replicas) {
			t.Fatalf("shard %d changed: %+v vs %+v", i, got.Shards[i], m.Shards[i])
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestShardIDFormat(t *testing.T) {
	for k := 0; k < 4; k++ {
		s := FormatShardID(k, 4)
		gk, gn, err := ParseShardID(s)
		if err != nil || gk != k || gn != 4 {
			t.Fatalf("ParseShardID(%q) = %d,%d,%v", s, gk, gn, err)
		}
	}
	for _, bad := range []string{"", "3", "3/", "/4", "4/4", "-1/4", "x/4", "0/0", "1/2/3"} {
		if _, _, err := ParseShardID(bad); err == nil {
			t.Errorf("ParseShardID(%q) accepted", bad)
		}
	}
}
