package cli

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// dyingListener fails its next Accept once die is closed, which makes
// http.Server.Serve return: the "unexpected server death" Serve supervises.
type dyingListener struct {
	net.Listener
	die chan struct{}
}

var errListenerDied = errors.New("listener died")

func (l *dyingListener) Accept() (net.Conn, error) {
	type result struct {
		c   net.Conn
		err error
	}
	got := make(chan result, 1)
	go func() {
		c, err := l.Listener.Accept()
		got <- result{c, err}
	}()
	select {
	case r := <-got:
		return r.c, r.err
	case <-l.die:
		l.Listener.Close() // unblocks the Accept goroutine
		return nil, errListenerDied
	}
}

func get(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET %s: %v", addr, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeGateAddrFileDrain: the address is published only once the
// readiness predicate accepts /healthz, and SIGTERM drains to a nil return.
func TestServeGateAddrFileDrain(t *testing.T) {
	var probes atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) <= 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	addrFile := filepath.Join(t.TempDir(), "addr")
	ready := make(chan string, 1)
	var served atomic.Value
	done := make(chan error, 1)
	go func() {
		done <- Serve(ServeConfig{
			Addr: "127.0.0.1:0", AddrFile: addrFile, Handler: handler,
			Ready: func(status int) bool { return status == http.StatusOK },
			Drain: 5 * time.Second, Log: quiet,
			Serving: func(bound string) { served.Store(bound) },
			ReadyCh: ready,
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("Serve returned before ready: %v", err)
	}
	if n := probes.Load(); n < 4 {
		t.Fatalf("ready after %d probes; the gate must wait out the three 503s", n)
	}
	if b, err := os.ReadFile(addrFile); err != nil || strings.TrimSpace(string(b)) != addr {
		t.Fatalf("addr file %q, %v; want %q", b, err, addr)
	}
	if served.Load() != addr {
		t.Fatalf("Serving saw %v, want %s", served.Load(), addr)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after SIGTERM: %v", err)
	}
}

// TestServeAddrFileAtomic polls the address file while Serve starts: every
// read finds no file or the whole address line, never an empty or partial
// one.
func TestServeAddrFileAtomic(t *testing.T) {
	var probes atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) <= 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	addrFile := filepath.Join(t.TempDir(), "addr")
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ServeConfig{
			Addr: "127.0.0.1:0", AddrFile: addrFile, Handler: handler,
			Ready: func(status int) bool { return status == http.StatusOK },
			Drain: 5 * time.Second, Log: quiet,
			Serving: func(string) {}, ReadyCh: ready,
		})
	}()
	var addr string
	reads := 0
	for addr == "" {
		select {
		case addr = <-ready:
		case err := <-done:
			t.Fatalf("Serve returned before ready: %v", err)
		default:
		}
		b, err := os.ReadFile(addrFile)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		reads++
		if err != nil {
			t.Fatal(err)
		}
		if s := string(b); !strings.HasSuffix(s, "\n") || strings.Count(s, "\n") != 1 {
			t.Fatalf("poll %d read %q: not a whole address line", reads, s)
		} else if _, _, err := net.SplitHostPort(strings.TrimSpace(s)); err != nil {
			t.Fatalf("poll %d read %q: %v", reads, s, err)
		}
	}
	if b, err := os.ReadFile(addrFile); err != nil || string(b) != addr+"\n" {
		t.Fatalf("addr file %q, %v; want %q", b, err, addr)
	}
	if left, _ := filepath.Glob(addrFile + ".*"); len(left) != 0 {
		t.Fatalf("temporary files left beside the address file: %v", left)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after SIGTERM: %v", err)
	}
}

// TestServeRestartsOnTheSamePort: a dead server is re-listened on the
// bound address while the budget lasts, and its error is returned after.
func TestServeRestartsOnTheSamePort(t *testing.T) {
	die := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ServeConfig{
			Addr: "127.0.0.1:0", Handler: http.NotFoundHandler(),
			Wrap:     func(ln net.Listener) net.Listener { return &dyingListener{ln, die} },
			Ready:    func(int) bool { return true },
			Restarts: 1, Drain: 5 * time.Second, Log: quiet,
			Serving: func(string) {},
			ReadyCh: ready,
		})
	}()
	addr := <-ready
	die <- struct{}{} // first server dies; one restart in the budget
	deadline := time.Now().Add(5 * time.Second)
	// Dial afresh each time: a kept-alive connection to the dead server
	// still answers, and would end this wait before the restart listens.
	// The timeout covers a dial the dying listener accepted and dropped.
	fresh := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		if resp, err := fresh.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted server never answered on the original address")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := get(t, addr); got != http.StatusNotFound {
		t.Fatalf("restarted server answered %d", got)
	}
	close(die) // second death exhausts the budget
	err := <-done
	if !errors.Is(err, errListenerDied) || !strings.Contains(err.Error(), "restarts exhausted") {
		t.Fatalf("Serve = %v, want the listener's error wrapped as exhausted", err)
	}
}
