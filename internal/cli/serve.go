// Package cli is the process edge the commands share: the flag-value
// parsers and graph loading of apsprun and apspd, and the supervised HTTP
// serve loop of apspd and apsprouter.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/checkpoint"
)

// ServeConfig describes one daemon's HTTP edge.
type ServeConfig struct {
	// Addr is the listen address (host:port; port 0 picks a free one).
	Addr string
	// AddrFile, if non-empty, receives the bound address once the readiness
	// gate has passed: the contract is "the address in this file answers".
	AddrFile string
	Handler  http.Handler
	// Wrap, if set, wraps every fresh listener (apspd's -chaos-http).
	Wrap func(net.Listener) net.Listener
	// Ready judges the status of a GET /healthz made through the real
	// listener; the gate polls until it holds.
	Ready func(status int) bool
	// Restarts is how many times an unexpectedly dead server is re-listened
	// on the same bound address (so a written AddrFile stays valid).
	Restarts int
	// Drain bounds the wait for in-flight requests after SIGINT/SIGTERM.
	Drain time.Duration
	Log   *slog.Logger
	// Serving runs once the gate has passed and AddrFile is written (the
	// command's own "serving" log line); ReadyCh, if non-nil, then receives
	// the bound address.
	Serving func(bound string)
	ReadyCh chan<- string
}

// Serve runs the supervised serve loop: listen, pass the readiness gate,
// publish the address, re-listen after an unexpected server death up to
// Restarts times, and on SIGINT/SIGTERM drain in-flight requests and
// return nil.
func Serve(cfg ServeConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	listenAddr := cfg.Addr
	for attempt := 0; ; attempt++ {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			return err
		}
		bound := ln.Addr().String()
		listenAddr = bound
		if cfg.Wrap != nil {
			ln = cfg.Wrap(ln)
		}
		httpSrv := &http.Server{Handler: cfg.Handler}
		errc := make(chan error, 1)
		go func() { errc <- httpSrv.Serve(ln) }()

		if attempt == 0 {
			// Never publish an address that is not serving yet.
			if err := waitReady(bound, 10*time.Second, cfg.Ready); err != nil {
				httpSrv.Close()
				return err
			}
			if cfg.AddrFile != "" {
				if err := publishAddr(cfg.AddrFile, bound); err != nil {
					httpSrv.Close()
					return err
				}
			}
			cfg.Serving(bound)
			if cfg.ReadyCh != nil {
				cfg.ReadyCh <- bound
			}
		} else {
			cfg.Log.Warn("server restarted", "addr", bound, "attempt", attempt)
		}

		select {
		case err := <-errc:
			if attempt >= cfg.Restarts {
				if cfg.Restarts > 0 {
					return fmt.Errorf("server died (%d restarts exhausted): %w", cfg.Restarts, err)
				}
				return err
			}
			cfg.Log.Error("http server died, restarting", "err", err, "restartsLeft", cfg.Restarts-attempt)
			continue
		case <-ctx.Done():
		}
		stop()
		cfg.Log.Info("signal received, draining", "max", cfg.Drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// waitReady polls /healthz through the listener until ready accepts the
// status. Transient connect errors (and chaos-injected kills, when the
// listener is wrapped) are retried until the deadline.
func waitReady(addr string, timeout time.Duration, ready func(status int) bool) error {
	deadline := time.Now().Add(timeout)
	url := "http://" + addr + "/healthz"
	var lastErr error
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if ready(resp.StatusCode) {
				return nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz readiness gate: %w", lastErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// publishAddr writes the bound address to path with checkpoint.WriteAtomic,
// so a poller finds either no file or the whole address, never an empty or
// partial one.
func publishAddr(path, bound string) error {
	return checkpoint.WriteAtomic(path, func(f *os.File) error {
		if err := f.Chmod(0o644); err != nil {
			return err
		}
		_, err := f.WriteString(bound + "\n")
		return err
	})
}
