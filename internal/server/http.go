package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// The HTTP admin endpoint is tpserverd's window for standard ops tooling:
// a Prometheus scraper, curl, or `go tool pprof` against a live server.
// It serves on its own listener (typically a different port than the
// query protocol, and like it loopback-bound by default — pprof exposes
// heap contents, so the same trust caveats apply):
//
//	GET /metrics                 Prometheus text exposition — byte-identical
//	                             to the \metrics builtin (one Render path)
//	GET /healthz                 liveness: 200 while the process serves HTTP
//	GET /readyz                  readiness: 200 once the query listener is
//	                             accepting (the catalog is preloaded before
//	                             that); 503 while shutting down, draining,
//	                             or with the admission queue saturated —
//	                             load balancers steer new work elsewhere
//	                             before clients burn round trips on
//	                             "overloaded" rejections
//	/debug/pprof/...             net/http/pprof: CPU/heap/goroutine/etc.
//	                             profiles of the live server

// adminServer tracks one admin HTTP listener for shutdown.
type adminServer struct {
	srv *http.Server
}

func (a *adminServer) close() {
	// http.Server.Close closes the listener and all active connections —
	// admin requests are short reads, nothing worth draining gracefully
	// while queries are being cancelled anyway.
	_ = a.srv.Close()
}

// AdminHandler returns the admin endpoint's handler (its own mux, not
// http.DefaultServeMux, so importing net/http/pprof side effects from
// other packages cannot widen the surface).
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, s.Metrics().Render())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.mu.Lock()
		serving, down, draining := s.ln != nil, s.shutdown, s.draining
		s.mu.Unlock()
		switch {
		case down:
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
		case draining:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !serving:
			http.Error(w, "query listener not accepting yet", http.StatusServiceUnavailable)
		case s.adm.saturated():
			http.Error(w, "admission queue saturated", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ready")
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeAdmin serves the admin HTTP endpoint on ln until Close. Like
// Serve, it always closes ln; a Close-initiated shutdown returns nil.
func (s *Server) ServeAdmin(ln net.Listener) error {
	a := &adminServer{
		srv: &http.Server{
			Handler: s.AdminHandler(),
			// The admin port must not be a trivial slowloris hold on the
			// process: requests are tiny, so tight header/idle budgets
			// cost nothing.
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       time.Minute,
		},
	}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.admin = a
	s.mu.Unlock()
	s.logf("admin http listening on %s", ln.Addr())
	err := a.srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
