// Package inproc is the in-process serving tier that the experiment drill
// (E-CHAOS, E-CLUSTER, FuzzServingModel) and internal/cluster's tests boot:
// a socket-free network of HTTP handlers, oracle backends with the
// lifecycle of an apspd process that autosaves, and one waiter. It does not
// import internal/cluster, so that package's tests can use it from inside
// the package; each caller puts its own router on the Net.
package inproc

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// The errors a request on a Net fails with, wrapped with the host's name.
var (
	ErrRefused = errors.New("connection refused")
	ErrReset   = errors.New("connection reset: host killed mid-request")
)

// Net is a socket-free network: a request is served in process by the
// handler set for its URL's host. Set(host, nil) kills the host the way
// closing its listener and connections does: new requests are refused and
// the ones in flight fail, with no port to re-bind. The zero Net is empty
// and ready to use.
type Net struct {
	mu    sync.Mutex
	hosts map[string]*host
}

type host struct {
	h      http.Handler
	ctx    context.Context // cancelled when the host is killed or replaced
	cancel context.CancelFunc
}

// Set puts h on the network as name, or takes name off when h is nil,
// killing whatever served it before.
func (n *Net) Set(name string, h http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old := n.hosts[name]; old != nil {
		old.cancel()
	}
	delete(n.hosts, name)
	if h != nil {
		if n.hosts == nil {
			n.hosts = map[string]*host{}
		}
		ctx, cancel := context.WithCancel(context.Background())
		n.hosts[name] = &host{h, ctx, cancel}
	}
}

// RoundTrip serves req on its host's handler. The request body is closed
// on every path.
func (n *Net) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	n.mu.Lock()
	lh := n.hosts[req.URL.Host]
	n.mu.Unlock()
	if lh == nil {
		return nil, fmt.Errorf("dial %s: %w", req.URL.Host, ErrRefused)
	}
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(lh.ctx, cancel)()
	rec := httptest.NewRecorder()
	lh.h.ServeHTTP(rec, req.WithContext(ctx))
	if lh.ctx.Err() != nil {
		return nil, fmt.Errorf("%s: %w", req.URL.Host, ErrReset)
	}
	return rec.Result(), nil
}

// Backend is one oracle backend on a Net with the lifecycle of an apspd
// process run with an autosave dir: Restart boots it the way apspd boots,
// every publish of the live server is autosaved to Dir, Kill takes it
// down, and Crash makes it die at its next publish, after the swap and
// before the save.
type Backend struct {
	Net     *Net
	Host    string       // its name on Net
	Dir     string       // its autosave dir
	ShardID string       // stamped on its answers, as apspd -shard does
	Log     *slog.Logger // RecoverDir's and the autosave's records
	// Build computes the snapshot of g the backend serves: a cold boot's,
	// when nothing in Dir loads, and every recompute's.
	Build func(g *graph.Graph) (*oracle.Snapshot, error)
	// Next names the graph POST /admin/recompute rebuilds, for the
	// generation gen it will be published as.
	Next func(gen uint64) *graph.Graph

	mu    sync.Mutex
	srv   *oracle.Server // nil while down
	saved *graph.Graph   // the graph of its newest autosave
	crash bool           // die at the next publish, before the autosave
}

// Restart kills b and boots it the way apspd boots with graph g: it serves
// the newest autosave of g in Dir that loads (oracle.RecoverDir quarantines
// corrupt files), else a cold Build(g), on a fresh server wired with the
// daemon's autosave hook. It reports whether the snapshot came from Dir.
func (b *Backend) Restart(g *graph.Graph) (recovered bool, err error) {
	b.Kill()
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return false, err
	}
	snap, _, err := oracle.RecoverDir(b.Dir, g, checkpoint.Fingerprint(g), b.Log)
	recovered = snap != nil
	if err == nil && snap == nil {
		snap, err = b.Build(g)
	}
	if err != nil {
		return false, err
	}
	srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(4096), Met: oracle.NewMetrics(), ShardID: b.ShardID}
	srv.Recompute = func(context.Context) (*oracle.Snapshot, error) {
		return b.Build(b.Next(srv.Store.Current().Gen() + 1))
	}
	// A killed server's late publish saves nothing: a dead process cannot.
	autosave := oracle.Autosave(b.Dir, 2, b.Log)
	srv.AfterPublish = func(s *oracle.Snapshot) {
		b.mu.Lock()
		live := b.srv == srv
		crash := live && b.crash
		b.crash = b.crash && !crash
		b.mu.Unlock()
		switch {
		case crash:
			b.Kill()
		case live:
			autosave(s)
			b.mu.Lock()
			b.saved = s.Graph()
			b.mu.Unlock()
		}
	}
	b.mu.Lock()
	b.srv = srv
	b.mu.Unlock()
	srv.Publish(snap)
	b.Net.Set(b.Host, srv.Handler())
	return recovered, nil
}

// Kill takes b off the network and reports whether it was up.
func (b *Backend) Kill() (up bool) {
	b.mu.Lock()
	up, b.srv = b.srv != nil, nil
	b.mu.Unlock()
	b.Net.Set(b.Host, nil)
	return up
}

// Crash arms b to die at its next publish, between the swap and the
// autosave, and reports whether b was up to arm.
func (b *Backend) Crash() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.crash = b.srv != nil
	return b.crash
}

// Server returns b's live server, or nil while b is down.
func (b *Backend) Server() *oracle.Server {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.srv
}

// Saved returns the graph of b's newest autosave, or nil before its first.
func (b *Backend) Saved() *graph.Graph {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.saved
}

// Await polls cond every millisecond until it holds, and fails once d has
// passed without it.
func Await(d time.Duration, cond func() bool) error {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("still waiting after %v", d)
		}
	}
	return nil
}
