package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
)

// distResp mirrors the daemon's /dist body for these tests.
type distResp struct {
	Reachable bool   `json:"reachable"`
	Dist      *int64 `json:"dist"`
}

// TestDaemonAutosaveRecovery boots one daemon with -autosave-dir, stops
// it, then boots a second with a deliberately broken -alg: the second can
// only become ready by recovering the autosaved snapshot (the compute
// path would reject the bogus algorithm), which is exactly the crash-safe
// boot contract.
func TestDaemonAutosaveRecovery(t *testing.T) {
	dir := t.TempDir()
	gargs := []string{"-n", "24", "-m", "72", "-seed", "5", "-sources", "0,3,7", "-log", "off"}

	base, errc := startDaemon(t, append(gargs, "-autosave-dir", dir)...)
	var first distResp
	if status := getJSON(t, base+"/dist?src=0&dst=3", &first); status != http.StatusOK {
		t.Fatalf("dist status %d", status)
	}
	stopDaemon(t, errc)
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no autosave written: %v %v", snaps, err)
	}

	// Same graph flags, impossible algorithm: only recovery can serve.
	base2, errc2 := startDaemon(t, append(gargs, "-autosave-dir", dir, "-alg", "no-such-alg")...)
	defer stopDaemon(t, errc2)
	var h oracle.Health
	if status := getJSON(t, base2+"/healthz", &h); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if h.Alg != "pipeline" || h.K != 3 {
		t.Fatalf("recovered healthz = %+v, want the autosaved pipeline snapshot", h)
	}
	var second distResp
	if status := getJSON(t, base2+"/dist?src=0&dst=3", &second); status != http.StatusOK {
		t.Fatalf("recovered dist status %d", status)
	}
	if (first.Dist == nil) != (second.Dist == nil) ||
		(first.Dist != nil && *first.Dist != *second.Dist) {
		t.Fatalf("recovered answer %+v differs from original %+v", second, first)
	}
}

// TestDaemonAutosaveQuarantine tears the newest autosave and expects the
// next boot to quarantine it and recover the older valid generation.
func TestDaemonAutosaveQuarantine(t *testing.T) {
	dir := t.TempDir()
	gargs := []string{"-n", "24", "-m", "72", "-seed", "5", "-sources", "0,3", "-log", "off"}

	base, errc := startDaemon(t, append(gargs, "-autosave-dir", dir, "-autosave-keep", "4")...)
	// A recompute publishes a second generation → a second autosave file.
	resp, err := http.Post(base+"/admin/recompute", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var h oracle.Health
		getJSON(t, base+"/healthz", &h)
		if h.Gen >= 2 && !h.Recomputing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recompute never published gen 2")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopDaemon(t, errc)

	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("expected 2 autosaves, have %v", snaps)
	}
	newest := newestFile(t, snaps)
	whole, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, whole[:len(whole)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	base2, errc2 := startDaemon(t, append(gargs, "-autosave-dir", dir, "-alg", "no-such-alg")...)
	defer stopDaemon(t, errc2)
	var h oracle.Health
	if status := getJSON(t, base2+"/healthz", &h); status != http.StatusOK || h.Alg != "pipeline" {
		t.Fatalf("healthz after quarantine = %d %+v", status, h)
	}
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Fatalf("torn autosave not quarantined: %v", err)
	}
}

func newestFile(t *testing.T, paths []string) string {
	t.Helper()
	best, bestMod := "", time.Time{}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.ModTime().After(bestMod) || best == "" {
			best, bestMod = p, info.ModTime()
		}
	}
	return best
}

// TestDaemonAddrFileReadiness pins the -addr-file ordering contract: the
// moment the file exists, the address in it must answer /healthz with 200
// on the first try — the file is written only after the readiness gate.
func TestDaemonAddrFileReadiness(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr.txt")
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-n", "16", "-m", "48", "-sources", "0,2", "-log", "off"},
			io.Discard, io.Discard, ready)
	}()
	// Watch the FILE, not the ready channel: scripts only see the file.
	deadline := time.Now().Add(30 * time.Second)
	var addr string
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon died before writing addr file: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("addr file never appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// First and only probe must succeed: no retry loop here by design.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("addr file %q published a non-serving address: %v", addr, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz via addr file: status %d, want 200 first try", resp.StatusCode)
	}
	<-ready // drain so stopDaemon's SIGTERM isn't racing readiness
	stopDaemon(t, errc)
}

// TestDaemonChaosFlagValidation covers the -chaos-* flag gates.
func TestDaemonChaosFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-chaos-kill", "0.5"}, "-chaos-kill requires -chaos-http"},
		{[]string{"-chaos-http", "delay=bogus"}, "bad delay"},
		{[]string{"-chaos-http", "none", "-chaos-kill", "1.5"}, "outside [0,1]"},
	}
	for _, c := range cases {
		err := run(append([]string{"-addr", "127.0.0.1:0", "-n", "8", "-m", "16", "-log", "off"}, c.args...),
			io.Discard, io.Discard, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) err = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestDaemonServesThroughChaosListener boots with listener-level chaos
// (connection kills) and verifies a retrying client still gets correct
// answers — the shell-driven chaos drill's in-process twin.
func TestDaemonServesThroughChaosListener(t *testing.T) {
	base, errc := startDaemon(t,
		"-n", "16", "-m", "48", "-sources", "0,2", "-log", "off",
		"-chaos-http", "seed=3", "-chaos-kill", "0.3")
	defer stopDaemon(t, errc)
	okCount := 0
	for i := 0; i < 30; i++ {
		var resp distResp
		status, err := tryGetJSON(base+"/dist?src=0&dst=2", &resp)
		if err != nil {
			continue // killed connection: the expected chaos
		}
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
		okCount++
	}
	if okCount == 0 {
		t.Fatal("no query survived 30 attempts at kill probability 0.3")
	}
}

// tryGetJSON is getJSON that reports transport errors instead of failing
// the test (chaos kills are expected).
func tryGetJSON(url string, out any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return 0, fmt.Errorf("bad JSON %q: %w", body, err)
		}
	}
	return resp.StatusCode, nil
}
