// Package admin serves a live node's observability surface over HTTP:
//
//	/metrics        telemetry registry in Prometheus text format
//	/status         JSON snapshot (leaf set, routing table, counters)
//	/debug/events   the node's most recent telemetry events (?n=, default 50), as JSON
//	/debug/pprof/   the standard net/http/pprof handlers
//
// The server is read-only and unauthenticated; bind it to loopback (the
// default in mspastry-node) unless the network is trusted.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mspastry/internal/telemetry"
)

// Options configures the optional endpoints.
type Options struct {
	// Status, when set, backs /status: it is called once per request and
	// its result is rendered as JSON. It runs on an HTTP goroutine, so it
	// must do its own synchronisation (e.g. transport.DoSync).
	Status func() any
	// Tracer, when set, backs /debug/events.
	Tracer *telemetry.Tracer
}

// Server is a running admin endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (for example "127.0.0.1:0") and serves the registry
// until Close.
func Serve(addr string, reg *telemetry.Registry, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %q: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		var status any
		if opts.Status != nil {
			status = opts.Status()
		}
		writeJSON(w, map[string]any{
			"status":  status,
			"metrics": reg.Snapshot(),
		})
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if opts.Tracer == nil {
			http.Error(w, "event recording disabled", http.StatusNotFound)
			return
		}
		n := 50
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		writeJSON(w, opts.Tracer.Recent(n))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:43125".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
