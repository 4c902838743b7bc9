package substrate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/vecstore"
)

// Checkpoint file layout, under the manager's data directory:
//
//	<dir>/wal.log
//	<dir>/checkpoint-<epoch>/MANIFEST.json
//	<dir>/checkpoint-<epoch>/triples.nt    kg.WriteNTTriples of the snapshot
//	<dir>/checkpoint-<epoch>/graph.bin     HNSW adjacency, only when a graph exists
//
// A checkpoint holds each fact once. A triple's vector is a pure function
// of its text, so the vector rows are not persisted: loading re-encodes
// triples.nt into the arena with the call a first boot makes. Only the
// HNSW graph's adjacency, which is expensive to rebuild, is stored next to
// the triples.
//
// A checkpoint directory is written as checkpoint-<epoch>.tmp, its files
// fsynced, then renamed into place — MANIFEST.json inside a final-named
// directory is the validity marker. Recovery loads the newest directory
// that fully validates and ignores (then prunes) everything else, so a
// crash at any point leaves either the previous checkpoint or the new one.

const (
	checkpointPrefix = "checkpoint-"
	manifestName     = "MANIFEST.json"
	triplesName      = "triples.nt"
	graphName        = "graph.bin"
	walName          = "wal.log"
	// checkpointFormat bumps on incompatible manifest/layout changes.
	// Format 1 also carried index.bin (every triple again, with its dense
	// vector, and the graph inside it) and no content hashes; such a
	// directory still loads, from its triples.nt alone.
	checkpointFormat = 2
)

// manifest describes one checkpoint for validation at load time.
type manifest struct {
	Format  int    `json:"format"`
	Epoch   uint64 `json:"epoch"`
	Source  string `json:"source"`
	Triples int    `json:"triples"`
	// TriplesSHA256 is the hex SHA-256 of triples.nt (format 2 on): a
	// flipped byte that still parses would otherwise be served as a
	// different fact at the same epoch.
	TriplesSHA256 string `json:"triples_sha256,omitempty"`
	// ANNNodes is the persisted HNSW graph's node count: the graph covers
	// triples [0, ANNNodes). 0 = no graph and no graph.bin.
	ANNNodes int `json:"ann_nodes,omitempty"`
	// GraphSHA256 is the hex SHA-256 of graph.bin, set with ANNNodes.
	GraphSHA256 string `json:"graph_sha256,omitempty"`
}

// checkpointDirName renders the final directory name for an epoch; the
// zero-padded hex keeps lexical order equal to epoch order.
func checkpointDirName(epoch uint64) string {
	return fmt.Sprintf("%s%016x", checkpointPrefix, epoch)
}

// parseCheckpointEpoch extracts the epoch from a checkpoint directory
// name, rejecting temporaries and strangers.
func parseCheckpointEpoch(name string) (uint64, bool) {
	if !strings.HasPrefix(name, checkpointPrefix) || strings.HasSuffix(name, ".tmp") {
		return 0, false
	}
	e, err := strconv.ParseUint(strings.TrimPrefix(name, checkpointPrefix), 16, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// writeCheckpoint persists one consistent snapshot: the triples exactly
// as published, the graph over their prefix when there is one, and a
// manifest naming both files' hashes. Returns the final directory path.
func writeCheckpoint(dir string, epoch uint64, source kg.Source, triples []kg.Triple, ann *vecstore.HNSW) (string, error) {
	final := filepath.Join(dir, checkpointDirName(epoch))
	tmp := final + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", fmt.Errorf("substrate: checkpoint: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("substrate: checkpoint: %w", err)
	}
	// writeFile writes and fsyncs one file and returns its hex SHA-256.
	writeFile := func(name string, write func(w io.Writer) error) (string, error) {
		f, err := os.OpenFile(filepath.Join(tmp, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return "", fmt.Errorf("substrate: checkpoint %s: %w", name, err)
		}
		sum := sha256.New()
		if err := write(io.MultiWriter(f, sum)); err != nil {
			f.Close()
			return "", fmt.Errorf("substrate: checkpoint %s: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return "", fmt.Errorf("substrate: checkpoint %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return "", fmt.Errorf("substrate: checkpoint %s: %w", name, err)
		}
		return hex.EncodeToString(sum.Sum(nil)), nil
	}
	m := manifest{
		Format:  checkpointFormat,
		Epoch:   epoch,
		Source:  source.String(),
		Triples: len(triples),
	}
	var err error
	if m.TriplesSHA256, err = writeFile(triplesName, func(w io.Writer) error {
		return kg.WriteNTTriples(w, triples)
	}); err != nil {
		return "", err
	}
	if ann != nil {
		m.ANNNodes = ann.Len()
		if m.GraphSHA256, err = writeFile(graphName, ann.WriteGraph); err != nil {
			return "", err
		}
	}
	if _, err := writeFile(manifestName, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(m)
	}); err != nil {
		return "", err
	}
	if err := syncDir(tmp); err != nil {
		return "", err
	}
	if err := os.RemoveAll(final); err != nil {
		return "", fmt.Errorf("substrate: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("substrate: checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// loadedCheckpoint is one fully-validated checkpoint, ready to become a
// manager's store and arena (open for the WAL tail's appends).
type loadedCheckpoint struct {
	epoch uint64
	store *kg.Store
	arena *vecstore.Arena
	// ann is the persisted HNSW graph over the arena's first rows, nil
	// when the checkpoint has none (or is a format-1 directory, whose
	// graph sat inside the index.bin this version no longer reads).
	ann *vecstore.HNSW
}

// readHashed reads one checkpoint file whole and, when the manifest
// records a hash for it, refuses content that does not match.
func readHashed(path, wantHex string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if wantHex != "" {
		if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != wantHex {
			return nil, fmt.Errorf("sha256 is %x, manifest says %s", got, wantHex)
		}
	}
	return b, nil
}

// loadCheckpoint reads and validates one checkpoint directory, encoding
// its triples into a new arena and binding the graph, when there is one,
// to the arena's first ann_nodes rows.
func loadCheckpoint(path string, enc *embed.Encoder, shardSize int) (*loadedCheckpoint, error) {
	mb, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		return nil, fmt.Errorf("substrate: checkpoint manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("substrate: checkpoint manifest: %w", err)
	}
	switch m.Format {
	case checkpointFormat:
		if m.TriplesSHA256 == "" || (m.ANNNodes > 0) != (m.GraphSHA256 != "") {
			return nil, fmt.Errorf("substrate: checkpoint manifest: missing content hash")
		}
	case 1:
		// No hashes, and the graph is not in a file of its own: load the
		// triples; Recover rebuilds the graph when ANN is on.
		m.TriplesSHA256, m.ANNNodes = "", 0
	default:
		return nil, fmt.Errorf("substrate: checkpoint format %d (want %d)", m.Format, checkpointFormat)
	}
	src, err := kg.ParseSource(m.Source)
	if err != nil {
		return nil, err
	}
	tb, err := readHashed(filepath.Join(path, triplesName), m.TriplesSHA256)
	if err != nil {
		return nil, fmt.Errorf("substrate: checkpoint triples: %w", err)
	}
	store, err := kg.ReadNT(bytes.NewReader(tb), src)
	if err != nil {
		return nil, fmt.Errorf("substrate: checkpoint triples: %w", err)
	}
	if store.Len() != m.Triples {
		return nil, fmt.Errorf("substrate: checkpoint holds %d triples, manifest says %d", store.Len(), m.Triples)
	}
	if m.ANNNodes < 0 || m.ANNNodes > store.Len() {
		return nil, fmt.Errorf("substrate: checkpoint graph covers %d of %d triples", m.ANNNodes, store.Len())
	}
	all := store.Prefix(store.Len()).Triples()
	cp := &loadedCheckpoint{epoch: m.Epoch, store: store, arena: vecstore.NewArena(enc, shardSize)}
	cp.arena.Append(all)
	if m.ANNNodes > 0 {
		gb, err := readHashed(filepath.Join(path, graphName), m.GraphSHA256)
		if err != nil {
			return nil, fmt.Errorf("substrate: checkpoint graph: %w", err)
		}
		if cp.ann, err = vecstore.ReadGraph(bytes.NewReader(gb), cp.arena.View(all)); err != nil {
			return nil, fmt.Errorf("substrate: checkpoint graph: %w", err)
		}
		if cp.ann.Len() != m.ANNNodes {
			return nil, fmt.Errorf("substrate: checkpoint graph covers %d triples, manifest says %d", cp.ann.Len(), m.ANNNodes)
		}
	}
	return cp, nil
}

// loadNewestCheckpoint scans dir for checkpoint directories and returns
// the newest one that fully validates, or nil when none does, plus the
// highest epoch any checkpoint directory is named for (0 without one).
// Invalid newer checkpoints are skipped (and reported) rather than fatal:
// an older intact checkpoint plus the WAL is still a correct recovery
// base, provided the WAL reaches the named epoch (Recover checks).
func loadNewestCheckpoint(dir string, enc *embed.Encoder, shardSize int) (cp *loadedCheckpoint, named uint64, skipped []error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, []error{fmt.Errorf("substrate: scan checkpoints: %w", err)}
	}
	type cand struct {
		epoch uint64
		path  string
	}
	var cands []cand
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if epoch, ok := parseCheckpointEpoch(e.Name()); ok {
			cands = append(cands, cand{epoch, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].epoch > cands[j].epoch })
	if len(cands) > 0 {
		named = cands[0].epoch
	}
	for _, c := range cands {
		cp, err := loadCheckpoint(c.path, enc, shardSize)
		if err != nil {
			skipped = append(skipped, fmt.Errorf("%s: %w", filepath.Base(c.path), err))
			continue
		}
		return cp, named, skipped
	}
	return nil, named, skipped
}

// pruneCheckpoints removes every checkpoint directory except the one for
// keep, plus any leftover temporaries. Best-effort: pruning failures are
// returned for logging but never block serving.
func pruneCheckpoints(dir string, keep uint64) []error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return []error{fmt.Errorf("substrate: prune checkpoints: %w", err)}
	}
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, checkpointPrefix) {
			continue
		}
		if epoch, ok := parseCheckpointEpoch(name); ok && epoch == keep {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			errs = append(errs, fmt.Errorf("substrate: prune %s: %w", name, err))
		}
	}
	return errs
}
