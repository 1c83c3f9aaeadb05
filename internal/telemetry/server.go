// Package telemetry is the live observability plane of the simulated
// system: an HTTP server exposing the metrics registry on /metrics in the
// Prometheus text format, the blocked operations of every attached World on
// /debug/ranks, the trace recorder's timeline on /debug/trace, and /healthz.
// A scrape reads the same instruments the end-of-run summaries render, so a
// scrape mid-run and WriteSummary at the end agree by construction.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/trace"
)

// Server is the opt-in telemetry HTTP endpoint behind the -serve flag:
//
//	GET /metrics      the live registry in Prometheus text format
//	GET /debug/ranks  per-rank blocked-op snapshots of every attached World
//	GET /debug/trace  the recorder's timeline as Chrome trace_event JSON
//	GET /healthz      liveness probe, "ok"
//
// Every field is optional: a nil Registry scrapes as an empty body, a nil
// Recorder exports an empty (valid) trace, a nil Introspection reports no
// worlds. Handlers only read — scraping never perturbs virtual time or run
// output.
type Server struct {
	Registry   *metrics.Registry
	Trace      *trace.Recorder
	Introspect *mpi.Introspection
}

// Handler returns the route table; it is exposed separately so tests can
// drive it through httptest without binding a port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.Registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /debug/ranks", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Introspect.Snapshots()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.Trace.ExportChromeTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Start binds addr (":0" picks an ephemeral port), serves in a background
// goroutine and returns the bound address plus a stop function. The caller
// prints the address so scripts can scrape an ephemeral port.
func (s *Server) Start(addr string) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after stop
	return ln.Addr().String(), srv.Close, nil
}
