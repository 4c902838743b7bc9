package main

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// listeners are the HTTP servers run serves: the route table on -addr
// and, with -debug-addr, the runtime profiles on a listener of their own.
func listeners(cfg Config, server *Server) []*http.Server {
	out := []*http.Server{{Addr: cfg.Addr, Handler: server.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	if cfg.DebugAddr != "" {
		out = append(out, &http.Server{Addr: cfg.DebugAddr, Handler: debugHandler(), ReadHeaderTimeout: 10 * time.Second})
	}
	return out
}

// debugHandler serves net/http/pprof's profiles under /debug/pprof/ —
// e.g. a CPU profile from /debug/pprof/profile?seconds=N. The package
// also registers them on http.DefaultServeMux, which no listener serves.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
