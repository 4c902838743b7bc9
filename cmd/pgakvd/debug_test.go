package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDebugListener: runtime profiles are served only on the -debug-addr
// listener. With the flag off the server runs one listener, and it has no
// /debug/ route; with it on the serving listener still has none, and a CPU
// profile downloads from the debug one.
func TestDebugListener(t *testing.T) {
	env := serverEnv(t)
	routed := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, tc := range []struct {
		args      []string
		listeners int
	}{
		{nil, 1},
		{[]string{"-debug-addr", "127.0.0.1:0"}, 2},
	} {
		cfg, err := parseFlags(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		srvs := listeners(cfg, testServer(t, env, cfg))
		if len(srvs) != tc.listeners {
			t.Fatalf("%q: %d listeners, want %d", tc.args, len(srvs), tc.listeners)
		}
		if srvs[0].Addr != cfg.Addr {
			t.Fatalf("%q: the first listener is on %s, not -addr", tc.args, srvs[0].Addr)
		}
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile"} {
			if code := routed(srvs[0].Handler, path); code != http.StatusNotFound {
				t.Errorf("%q: the serving listener answers %s with %d", tc.args, path, code)
			}
		}
		if len(srvs) < 2 {
			continue
		}
		if srvs[1].Addr != cfg.DebugAddr {
			t.Fatalf("the debug listener is on %s, not -debug-addr", srvs[1].Addr)
		}
		debug := httptest.NewServer(srvs[1].Handler)
		defer debug.Close()
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Get(debug.URL + "/debug/pprof/profile?seconds=1")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// A CPU profile is a gzipped protocol buffer.
		if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
			t.Fatalf("CPU profile: status %d, %d bytes starting %x", resp.StatusCode, len(body), body[:min(len(body), 8)])
		}
	}
}
