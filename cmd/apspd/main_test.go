package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// startDaemon launches run() on a free port and returns the base URL and a
// channel carrying its exit error. The daemon is stopped by SIGTERM (see
// stopDaemon); tests exercise the same drain path as production.
func startDaemon(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, io.Discard, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, errc
	case err := <-errc:
		t.Fatalf("daemon died before serving: %v", err)
		return "", nil
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
		return "", nil
	}
}

// stopDaemon sends SIGTERM to the test process (run's NotifyContext
// consumes it) and verifies the daemon drains with a nil error.
func stopDaemon(t *testing.T, errc chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained after SIGTERM")
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonServesAndDrains is the end-to-end smoke: compute a small
// snapshot, answer /healthz and /dist correctly (validated against
// sequential Dijkstra), then drain cleanly on SIGTERM.
func TestDaemonServesAndDrains(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	url, errc := startDaemon(t, "-n", "24", "-m", "80", "-seed", "5", "-sources", "0,3,9", "-addr-file", addrFile)

	var h oracle.Health
	if status := getJSON(t, url+"/healthz", &h); status != http.StatusOK || h.Status != "ok" || h.Gen != 1 || h.K != 3 {
		t.Fatalf("healthz: status %d body %+v", status, h)
	}

	// The daemon's generated graph is reproducible from the same flags.
	g := graph.Random(24, 80, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 5, Directed: true})
	for _, src := range []int{0, 3, 9} {
		want := graph.Dijkstra(g, src)
		for v := 0; v < g.N(); v++ {
			var d struct {
				Reachable bool   `json:"reachable"`
				Dist      *int64 `json:"dist"`
			}
			if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=%d", url, src, v), &d); status != http.StatusOK {
				t.Fatalf("dist(%d,%d) status %d", src, v, status)
			}
			switch {
			case want[v] >= graph.Inf:
				if d.Reachable {
					t.Fatalf("dist(%d,%d) should be unreachable, got %+v", src, v, d)
				}
			case d.Dist == nil || *d.Dist != want[v]:
				t.Fatalf("dist(%d,%d) = %+v, Dijkstra %d", src, v, d, want[v])
			}
		}
	}

	raw, err := os.ReadFile(addrFile)
	if err != nil || !strings.Contains(url, strings.TrimSpace(string(raw))) {
		t.Fatalf("-addr-file wrote %q (err %v), url %s", raw, err, url)
	}
	stopDaemon(t, errc)
}

// TestDaemonLoadsCheckpoint is the daemon-level half of the
// checkpoint→oracle handoff gate: a mid-run checkpoint written the way
// apsprun writes one is picked up by -load (with -alg adopted from the
// file), finished, and served with distances matching Dijkstra.
func TestDaemonLoadsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := graph.Random(20, 64, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 9, Directed: true})
	graphPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Encode(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sources := []int{0, 4, 11}
	ckptPath := filepath.Join(dir, "run.ckpt")
	meta := &checkpoint.Meta{
		Alg: "pipeline", N: g.N(), M: g.M(), Graph: checkpoint.Fingerprint(g),
		Sources: sources, H: 0,
	}
	keeper := &checkpoint.Keeper{Path: ckptPath, Meta: meta}
	pol := &congest.CheckpointPolicy{AtRound: 5, Sink: keeper.Sink}
	if _, err := core.Run(g, core.Opts{Sources: sources, H: g.N() - 1, Engine: congest.Config{Checkpoint: pol}}); !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("checkpoint drill: %v", err)
	}

	url, errc := startDaemon(t, "-graph", graphPath, "-load", ckptPath, "-sources", "0,4,11")
	var h oracle.Health
	if status := getJSON(t, url+"/healthz", &h); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if h.Alg != "pipeline" {
		t.Fatalf("daemon did not adopt checkpoint alg: %+v", h)
	}
	if h.Fingerprint != fmt.Sprintf("%016x", checkpoint.Fingerprint(g)) {
		t.Fatalf("fingerprint did not round-trip: %+v", h)
	}
	for _, src := range sources {
		want := graph.Dijkstra(g, src)
		for v := 0; v < g.N(); v++ {
			var d struct {
				Dist *int64 `json:"dist"`
			}
			getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=%d", url, src, v), &d)
			if want[v] < graph.Inf && (d.Dist == nil || *d.Dist != want[v]) {
				t.Fatalf("resumed dist(%d,%d) = %+v, Dijkstra %d", src, v, d, want[v])
			}
		}
	}
	stopDaemon(t, errc)
}

// TestDaemonRejectsBadCheckpoint: -load against the wrong graph, or of a
// file with a flipped bit, must die at startup, not serve wrong answers.
func TestDaemonRejectsBadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := graph.Random(20, 64, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 9, Directed: true})
	ckptPath := filepath.Join(dir, "run.ckpt")
	meta := &checkpoint.Meta{
		Alg: "pipeline", N: g.N(), M: g.M(), Graph: checkpoint.Fingerprint(g),
		Sources: []int{0}, H: 0,
	}
	keeper := &checkpoint.Keeper{Path: ckptPath, Meta: meta}
	pol := &congest.CheckpointPolicy{AtRound: 3, Sink: keeper.Sink}
	if _, err := core.Run(g, core.Opts{Sources: []int{0}, H: g.N() - 1, Engine: congest.Config{Checkpoint: pol}}); !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("checkpoint drill: %v", err)
	}
	// Different seed → different graph → fingerprint mismatch.
	err := run([]string{"-addr", "127.0.0.1:0", "-n", "20", "-m", "64", "-seed", "10",
		"-load", ckptPath, "-sources", "0"}, io.Discard, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "graph mismatch") {
		t.Fatalf("wrong-graph checkpoint accepted: %v", err)
	}
	// The right graph, but one bit of the snapshot flipped on disk.
	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-9] ^= 0x01 // the snapshot's last byte, just before the checksum
	if err := os.WriteFile(ckptPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-addr", "127.0.0.1:0", "-n", "20", "-m", "64", "-seed", "9",
		"-load", ckptPath, "-sources", "0"}, io.Discard, io.Discard, nil)
	if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit-flipped checkpoint: err = %v, want a checksum error", err)
	}
}

// TestDaemonParallelBackend boots the daemon on the shared-memory
// compute backend and verifies the snapshot label, Dijkstra-validated
// distances, a served /path, and that /admin/recompute re-runs on the
// same backend and publishes a new generation.
func TestDaemonParallelBackend(t *testing.T) {
	url, errc := startDaemon(t, "-backend", "parallel", "-n", "24", "-m", "80", "-seed", "5", "-sources", "0,3,9")

	var h oracle.Health
	if status := getJSON(t, url+"/healthz", &h); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", status, h)
	}
	if !strings.HasPrefix(h.Alg, "parallel/") {
		t.Fatalf("snapshot alg %q, want parallel/*", h.Alg)
	}

	g := graph.Random(24, 80, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 5, Directed: true})
	for _, src := range []int{0, 3, 9} {
		want := graph.Dijkstra(g, src)
		for v := 0; v < g.N(); v++ {
			var d struct {
				Reachable bool   `json:"reachable"`
				Dist      *int64 `json:"dist"`
			}
			if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=%d", url, src, v), &d); status != http.StatusOK {
				t.Fatalf("dist(%d,%d) status %d", src, v, status)
			}
			switch {
			case want[v] >= graph.Inf:
				if d.Reachable {
					t.Fatalf("dist(%d,%d) should be unreachable, got %+v", src, v, d)
				}
			case d.Dist == nil || *d.Dist != want[v]:
				t.Fatalf("dist(%d,%d) = %+v, Dijkstra %d", src, v, d, want[v])
			}
		}
	}

	// The parallel backend records parents: /path must serve.
	var p struct {
		Path []int `json:"path"`
	}
	if status := getJSON(t, url+"/path?src=3&dst=9", &p); status != http.StatusOK || len(p.Path) == 0 {
		t.Fatalf("path(3,9): status %d body %+v", status, p)
	}

	resp, err := http.Post(url+"/admin/recompute", "application/json", nil)
	if err != nil {
		t.Fatalf("recompute: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var h2 oracle.Health
		getJSON(t, url+"/healthz", &h2)
		if h2.Gen > h.Gen {
			if !strings.HasPrefix(h2.Alg, "parallel/") {
				t.Fatalf("recompute switched backends: alg %q", h2.Alg)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recompute never published a new generation")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopDaemon(t, errc)
}

// TestRunFlagErrors: bad flags and stray arguments exit non-zero (the
// run() error becomes exit code 1 in main) with usage on stderr.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-sched", "dense"}, // the dense engine is a test reference, not a flag
		{"-grid", "3by4"},
		{"-sources", "0,x"},
		{"-alg", "frobnicate"},
		{"-backend", "gpu"},
		{"-backend", "parallel", "-faults", "delay=2"},
		{"-backend", "parallel", "-alg", "blocker"},
		{"stray-positional"},
	}
	for _, args := range cases {
		var errOut strings.Builder
		if err := run(args, io.Discard, &errOut, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// The flag package prints usage for unknown flags.
	var errOut strings.Builder
	_ = run([]string{"-bogus"}, io.Discard, &errOut, nil)
	if !strings.Contains(errOut.String(), "Usage") && !strings.Contains(errOut.String(), "-addr") {
		t.Errorf("usage not printed for bad flag:\n%s", errOut.String())
	}
}

// TestDaemonShardMode: -shard k/N serves exactly its contiguous source
// range (stamped with the shard ID header), 404s sources it does not own,
// and refuses to combine with -sources.
func TestDaemonShardMode(t *testing.T) {
	url, errc := startDaemon(t, "-n", "24", "-m", "80", "-seed", "5", "-shard", "1/3")

	var h oracle.Health
	if status := getJSON(t, url+"/healthz", &h); status != http.StatusOK || h.Status != "ok" || h.Shard != "1/3" {
		t.Fatalf("healthz: status %d body %+v", status, h)
	}
	lo, hi := cluster.Range(24, 1, 3)
	if h.K != hi-lo {
		t.Fatalf("shard 1/3 serves k=%d sources, want %d", h.K, hi-lo)
	}

	g := graph.Random(24, 80, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 5, Directed: true})
	for src := lo; src < hi; src++ {
		want := graph.Dijkstra(g, src)
		for _, dst := range []int{0, 7, 23} {
			resp, err := http.Get(fmt.Sprintf("%s/dist?src=%d&dst=%d", url, src, dst))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("dist(%d,%d) status %d", src, dst, resp.StatusCode)
			}
			if got := resp.Header.Get("X-Apsp-Shard"); got != "1/3" {
				t.Fatalf("dist(%d,%d) shard header %q, want 1/3", src, dst, got)
			}
			var d struct {
				Dist *int64 `json:"dist"`
			}
			if err := json.Unmarshal(body, &d); err != nil {
				t.Fatal(err)
			}
			if want[dst] < graph.Inf && (d.Dist == nil || *d.Dist != want[dst]) {
				t.Fatalf("shard dist(%d,%d) = %+v, Dijkstra %d", src, dst, d, want[dst])
			}
		}
	}
	// A source outside the owned range is unknown to this backend.
	if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=0", url, hi), nil); status != http.StatusNotFound {
		t.Fatalf("out-of-shard source answered %d, want 404", status)
	}
	stopDaemon(t, errc)
}

// TestDaemonShardFlagErrors: malformed -shard values and the
// -shard/-sources combination die at startup.
func TestDaemonShardFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "24", "-m", "80", "-shard", "3"},
		{"-n", "24", "-m", "80", "-shard", "3/3"},
		{"-n", "24", "-m", "80", "-shard", "x/2"},
		{"-n", "4", "-m", "6", "-shard", "2/8"}, // empty range: Range(4,2,8) = [1,1)
		{"-n", "24", "-m", "80", "-shard", "0/2", "-sources", "1,2"},
	} {
		if err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, io.Discard, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
