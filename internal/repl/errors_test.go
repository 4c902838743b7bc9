package repl

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/failure"
)

// noFlush hides the recorder's Flush: a connection that cannot stream.
type noFlush struct{ http.ResponseWriter }

// TestErrorRepliesCarryTheirClass drives the replication endpoints and
// the router into each class they reply with: every reply carries the
// class in its body and the class's status. A WAL whose header was
// overwritten fails its read, which is storage.
func TestErrorRepliesCarryTheirClass(t *testing.T) {
	dir := t.TempDir()
	mgr := newNodeManager(t, dir, false, 0)
	ingestN(t, mgr, 3, "e")
	if _, err := mgr.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewSource(map[string]Manager{"wikidata": mgr}, false).Mount(mux)
	head := "/v1/repl/stream?source=wikidata&from=" + strconv.FormatUint(mgr.Epoch(), 10)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	router, err := NewRouter(RouterConfig{Primary: dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)

	get := func(h http.Handler, path string, wrap func(http.ResponseWriter) http.ResponseWriter) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(wrap(rec), httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	plain := func(w http.ResponseWriter) http.ResponseWriter { return w }
	// The storage case comes last: it breaks the WAL.
	for _, tc := range []struct {
		want  failure.Class
		reply func() *httptest.ResponseRecorder
	}{
		{failure.NotFound, func() *httptest.ResponseRecorder {
			return get(mux, "/v1/repl/stream?source=nope", plain)
		}},
		{failure.InvalidQuery, func() *httptest.ResponseRecorder {
			return get(mux, "/v1/repl/stream?source=wikidata&from=x", plain)
		}},
		{failure.Unsupported, func() *httptest.ResponseRecorder {
			return get(mux, head, func(w http.ResponseWriter) http.ResponseWriter { return noFlush{w} })
		}},
		{failure.Truncated, func() *httptest.ResponseRecorder {
			return get(mux, "/v1/repl/stream?source=wikidata&from=0", plain)
		}},
		{failure.Unreachable, func() *httptest.ResponseRecorder {
			return get(router, "/v1/snapshot/compact", plain)
		}},
		{failure.Storage, func() *httptest.ResponseRecorder {
			if err := os.WriteFile(filepath.Join(dir, "wikidata", "wal.log"), []byte("garbage!"), 0o644); err != nil {
				t.Fatal(err)
			}
			return get(mux, head, plain)
		}},
	} {
		rec := tc.reply()
		var body replError
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: body %q: %v", tc.want, rec.Body.String(), err)
		}
		if rec.Code != tc.want.Status() || body.Class != tc.want || body.Error == "" {
			t.Errorf("%s: status %d, body %+v; want status %d", tc.want, rec.Code, body, tc.want.Status())
		}
	}
}
