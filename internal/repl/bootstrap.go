package repl

import (
	"archive/tar"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/substrate"
)

// BootstrapResult describes what a pre-flight bootstrap did.
type BootstrapResult struct {
	// Fetched reports whether a checkpoint was downloaded; false means
	// local state already reached the primary's checkpoint horizon (or
	// the primary has no checkpoint) and the WAL stream alone suffices.
	Fetched bool
	// Epoch is the fetched checkpoint's epoch (0 when not fetched).
	Epoch uint64
}

// FetchInfo retrieves a node's /v1/repl/info.
func FetchInfo(ctx context.Context, client *http.Client, base string) (InfoResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/repl/info", nil)
	if err != nil {
		return InfoResponse{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return InfoResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return InfoResponse{}, fmt.Errorf("repl: %s/v1/repl/info: %s", base, resp.Status)
	}
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return InfoResponse{}, fmt.Errorf("repl: decoding repl info: %w", err)
	}
	return info, nil
}

// BootstrapIfBehind is the replica pre-flight for one source, run
// BEFORE the local substrate is built: when the primary's newest
// checkpoint is past everything persisted locally, the WAL stream can
// no longer bridge the gap (the primary truncated it at the checkpoint
// epoch), so the checkpoint tarball is fetched and unpacked into
// dataDir where the normal boot recovery will find, validate and load
// it. Recovery then resumes at the checkpoint epoch and the stream
// takes over from there.
//
// dataDir is the per-source directory (Durability.Dir/<source>). The
// unpack is atomic: the archive lands in a temp directory first and is
// renamed into place only when complete, so a half-fetched checkpoint
// can never shadow good local state.
func BootstrapIfBehind(ctx context.Context, client *http.Client, primary, source, dataDir string) (BootstrapResult, error) {
	info, err := FetchInfo(ctx, client, primary)
	if err != nil {
		return BootstrapResult{}, err
	}
	si, ok := info.Sources[source]
	if !ok {
		return BootstrapResult{}, fmt.Errorf("repl: primary %s serves no source %q", primary, source)
	}
	local, err := substrate.MaxPersistedEpoch(dataDir)
	if err != nil {
		return BootstrapResult{}, err
	}
	if si.CheckpointEpoch == 0 || si.CheckpointEpoch <= local {
		return BootstrapResult{}, nil
	}

	u := primary + "/v1/repl/bootstrap?source=" + url.QueryEscape(source)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return BootstrapResult{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return BootstrapResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The checkpoint vanished between info and fetch (possible only
		// with manual deletion); stream from local state and let the
		// stream's own 410 handling surface any gap.
		return BootstrapResult{}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return BootstrapResult{}, fmt.Errorf("repl: bootstrap %s: %s", u, resp.Status)
	}
	dir, epoch, err := unpackCheckpoint(resp.Body, dataDir)
	if err != nil {
		return BootstrapResult{}, err
	}
	_ = dir
	return BootstrapResult{Fetched: true, Epoch: epoch}, nil
}

// unpackCheckpoint unpacks a packCheckpoint archive into dataDir,
// returning the final checkpoint directory and its epoch. All entries
// must live under one checkpoint-<epoch>/ root; path traversal is
// rejected.
func unpackCheckpoint(r io.Reader, dataDir string) (string, uint64, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return "", 0, err
	}
	tmp, err := os.MkdirTemp(dataDir, ".bootstrap-*")
	if err != nil {
		return "", 0, err
	}
	defer os.RemoveAll(tmp)

	var root string
	var epoch uint64
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", 0, fmt.Errorf("repl: reading bootstrap archive: %w", err)
		}
		name := filepath.Clean(hdr.Name)
		if filepath.IsAbs(name) || strings.HasPrefix(name, "..") {
			return "", 0, fmt.Errorf("repl: bootstrap archive entry escapes the data dir: %q", hdr.Name)
		}
		parts := strings.SplitN(name, string(filepath.Separator), 2)
		if len(parts) != 2 {
			return "", 0, fmt.Errorf("repl: bootstrap archive entry outside a checkpoint dir: %q", hdr.Name)
		}
		ep, ok := substrate.ParseCheckpointDir(parts[0])
		if !ok {
			return "", 0, fmt.Errorf("repl: bootstrap archive root %q is not a checkpoint dir", parts[0])
		}
		if root == "" {
			root, epoch = parts[0], ep
		} else if parts[0] != root {
			return "", 0, fmt.Errorf("repl: bootstrap archive holds multiple roots (%q, %q)", root, parts[0])
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		if err := os.MkdirAll(filepath.Join(tmp, root), 0o755); err != nil {
			return "", 0, err
		}
		f, err := os.OpenFile(filepath.Join(tmp, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return "", 0, err
		}
		// The frame-level stream CRC does not apply here: recovery
		// verifies each file against the SHA-256 its manifest records.
		if _, err := io.Copy(f, tr); err != nil {
			f.Close()
			return "", 0, fmt.Errorf("repl: unpacking %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return "", 0, err
		}
	}
	if root == "" {
		return "", 0, fmt.Errorf("repl: bootstrap archive was empty")
	}
	final := filepath.Join(dataDir, root)
	// A pre-existing directory under the same name would have made
	// MaxPersistedEpoch skip the fetch, so anything here is leftover
	// debris from an interrupted earlier attempt.
	if err := os.RemoveAll(final); err != nil {
		return "", 0, err
	}
	if err := os.Rename(filepath.Join(tmp, root), final); err != nil {
		return "", 0, err
	}
	return final, epoch, nil
}
