package repl

import (
	"archive/tar"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/failure"
)

// Source serves a durable pgakvd's replication endpoints: metadata for
// joining replicas and the router, a checkpoint tarball for bootstrap,
// and the live WAL stream. It is mounted on any durable server — a
// replica serves them too (its own WAL mirrors the primary's), which
// lets the router probe every node uniformly.
//
//	GET /v1/repl/info                     epochs + checkpoint horizons per source
//	GET /v1/repl/bootstrap?source=S       tar of S's newest checkpoint dir
//	GET /v1/repl/stream?source=S&from=N   chunked frame stream of records with epoch > N
type Source struct {
	managers map[string]Manager
	replica  bool
	// heartbeatEvery paces keep-alive frames on idle streams; replicas
	// use them for lag and liveness.
	heartbeatEvery time.Duration
}

// Manager is the slice of substrate.Manager the replication source
// needs; the indirection keeps source.go testable with fakes.
type Manager interface {
	Epoch() uint64
	LastCheckpointEpoch() uint64
	NewestCheckpoint() (path string, epoch uint64, ok bool)
	RecordsSince(from uint64) ([]WALRecord, error)
	SubscribeWAL(buf int) (*WALSub, func())
}

// NewSource wraps the given managers, keyed by KG source label
// ("wikidata", "freebase"). replica marks the info response so a router
// can tell what it is probing.
func NewSource(managers map[string]Manager, replica bool) *Source {
	return &Source{managers: managers, replica: replica, heartbeatEvery: time.Second}
}

// Mount registers the replication routes on mux.
func (s *Source) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/repl/info", s.handleInfo)
	mux.HandleFunc("GET /v1/repl/bootstrap", s.handleBootstrap)
	mux.HandleFunc("GET /v1/repl/stream", s.handleStream)
}

// InfoResponse is the /v1/repl/info body.
type InfoResponse struct {
	// Replica marks a node that itself applies a primary's WAL.
	Replica bool `json:"replica"`
	// Sources maps KG source labels to their replication positions.
	Sources map[string]SourceInfo `json:"sources"`
}

// SourceInfo is one source's replication position.
type SourceInfo struct {
	// Epoch is the currently served snapshot epoch.
	Epoch uint64 `json:"epoch"`
	// CheckpointEpoch is the newest checkpoint's epoch (0 = none): the
	// oldest position a replica can stream from without bootstrapping.
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
}

func (s *Source) handleInfo(w http.ResponseWriter, r *http.Request) {
	resp := InfoResponse{Replica: s.replica, Sources: make(map[string]SourceInfo, len(s.managers))}
	for name, mgr := range s.managers {
		resp.Sources[name] = SourceInfo{Epoch: mgr.Epoch(), CheckpointEpoch: mgr.LastCheckpointEpoch()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// manager resolves the ?source= query parameter, writing the error
// response itself on failure.
func (s *Source) manager(w http.ResponseWriter, r *http.Request) (Manager, bool) {
	name := r.URL.Query().Get("source")
	mgr, ok := s.managers[name]
	if !ok {
		writeError(w, failure.NotFound, fmt.Errorf("unknown source %q", name))
		return nil, false
	}
	return mgr, true
}

// handleBootstrap streams the newest checkpoint directory as a tar
// archive (entries named <dir>/<file>). 404 when no checkpoint exists
// yet — the joining replica then has nothing to bootstrap and streams
// the WAL from its local position instead. The directory is immutable
// once named (newer checkpoints land under new names), so the walk
// never races a writer.
func (s *Source) handleBootstrap(w http.ResponseWriter, r *http.Request) {
	mgr, ok := s.manager(w, r)
	if !ok {
		return
	}
	path, epoch, ok := mgr.NewestCheckpoint()
	if !ok {
		writeError(w, failure.NotFound, errors.New("no checkpoint exists yet; stream the wal from epoch 0 instead"))
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("X-Checkpoint-Epoch", strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusOK)
	if err := packCheckpoint(w, path); err != nil {
		// Headers are gone; the truncated tar fails the client's unpack,
		// which is the correct outcome for a half-shipped checkpoint.
		return
	}
}

// packCheckpoint writes dir as a tar stream whose entries are rooted at
// the directory's base name, so unpacking recreates checkpoint-<epoch>/
// under the replica's data dir.
func packCheckpoint(w io.Writer, dir string) error {
	tw := tar.NewWriter(w)
	base := filepath.Base(dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue // checkpoints are flat
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		hdr, err := tar.FileInfoHeader(info, "")
		if err != nil {
			return err
		}
		hdr.Name = base + "/" + e.Name()
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		_, err = io.Copy(tw, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return tw.Close()
}

// handleStream serves the record chain with epoch > from as a chunked
// frame stream: first the on-disk tail, then live appends as they
// happen, with heartbeats carrying the head epoch while idle. The
// subscription is registered BEFORE the on-disk read and deduplicated
// by epoch, so no record can fall between the tail and the live feed.
//
// 410 Gone means the WAL no longer reaches back to from (a checkpoint
// truncated it): the replica must bootstrap from the checkpoint and
// reconnect from its epoch.
func (s *Source) handleStream(w http.ResponseWriter, r *http.Request) {
	mgr, ok := s.manager(w, r)
	if !ok {
		return
	}
	from := uint64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, failure.InvalidQuery, fmt.Errorf("invalid from %q", v))
			return
		}
		from = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, failure.Unsupported, errors.New("streaming is unsupported by this connection"))
		return
	}

	sub, cancel := mgr.SubscribeWAL(1024)
	defer cancel()
	recs, err := mgr.RecordsSince(from)
	if err != nil {
		// substrate.ErrTruncatedHistory is truncated (410); a failed WAL
		// read is storage (500).
		writeError(w, failure.Of(err), err)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	sw := newStreamWriter(w)
	if err := sw.writeMagic(); err != nil {
		return
	}
	last := from
	for _, rec := range recs {
		if err := sw.writeRecord(rec); err != nil {
			return
		}
		last = rec.Epoch
	}
	// First heartbeat tells the replica the head immediately, so lag is
	// observable before any record flows.
	if err := sw.writeHeartbeat(mgr.Epoch()); err != nil {
		return
	}
	flusher.Flush()

	beat := time.NewTicker(s.heartbeatEvery)
	defer beat.Stop()
	for {
		select {
		case rec, ok := <-sub.C:
			if !ok {
				// Dropped for lagging (or manager shutdown): end the stream;
				// the replica reconnects and re-reads the on-disk tail.
				return
			}
			if rec.Epoch <= last {
				continue // already served from the on-disk tail
			}
			if rec.Epoch != last+1 {
				// A record fell between the tail read and the subscription
				// feed — impossible by construction, but never ship a gap.
				return
			}
			if err := sw.writeRecord(rec); err != nil {
				return
			}
			last = rec.Epoch
			flusher.Flush()
		case <-beat.C:
			if err := sw.writeHeartbeat(mgr.Epoch()); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// replError is the JSON error body of the replication endpoints and the
// router: the message, and the class whose status the reply carries.
type replError struct {
	Error string        `json:"error"`
	Class failure.Class `json:"class"`
}

// writeError answers with err under class, at the class's status.
func writeError(w http.ResponseWriter, class failure.Class, err error) {
	writeJSON(w, class.Status(), replError{Error: err.Error(), Class: class})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
