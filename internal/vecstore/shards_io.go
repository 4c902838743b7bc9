package vecstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/embed"
	"repro/internal/kg"
)

// shardsMagic identifies the multi-segment container format: a header
// followed by each segment's WriteTo stream. The version byte bumps on
// incompatible changes.
var shardsMagic = [8]byte{'P', 'G', 'A', 'K', 'V', 'S', 'H', 1}

// shardsMagicV2 is the type-tagged container: each record is prefixed
// with a tag byte, so the stream can carry an HNSW graph record next to
// the exact segments. Writers emit v2 only when a graph is present —
// graph-free checkpoints stay byte-identical with v1.
var shardsMagicV2 = [8]byte{'P', 'G', 'A', 'K', 'V', 'S', 'H', 2}

// Record tags in the v2 container.
const (
	recTagIndex = byte('X') // an exact segment: one Index WriteTo stream
	recTagGraph = byte('H') // the HNSW graph over the segment prefix
)

// maxShardCount bounds the container header so a corrupted count fails
// cleanly instead of driving a huge read loop.
const maxShardCount = 1 << 20

// WriteShards serialises a sequence of segment indexes as one stream:
// the substrate checkpoint writer's hook for persisting a sharded index
// (base segments plus delta segments) without flattening it. The caller
// owns w, so it can target a temporary file and fsync before renaming —
// nothing here touches the filesystem.
func WriteShards(w io.Writer, shards []*Index) (int64, error) {
	var written int64
	var head [12]byte
	copy(head[:8], shardsMagic[:])
	binary.LittleEndian.PutUint32(head[8:], uint32(len(shards)))
	n, err := w.Write(head[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("vecstore: write shards header: %w", err)
	}
	for i, sh := range shards {
		nn, err := sh.WriteTo(w)
		written += nn
		if err != nil {
			return written, fmt.Errorf("vecstore: write shard %d: %w", i, err)
		}
	}
	return written, nil
}

// WriteShardsHNSW is WriteShards plus an optional HNSW graph record.
// With a nil graph it delegates to WriteShards, keeping ANN-off
// checkpoints byte-identical with the v1 container. With a graph it
// writes the type-tagged v2 container: every segment as an 'X' record,
// then the graph as an 'H' record. The graph must cover a prefix of the
// concatenated segments ending on a segment boundary — only its
// adjacency is stored, and the reader rebinds node i to combined
// triple i.
func WriteShardsHNSW(w io.Writer, shards []*Index, g *HNSW) (int64, error) {
	if g == nil {
		return WriteShards(w, shards)
	}
	var written int64
	var head [12]byte
	copy(head[:8], shardsMagicV2[:])
	binary.LittleEndian.PutUint32(head[8:], uint32(len(shards))+1)
	n, err := w.Write(head[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("vecstore: write shards header: %w", err)
	}
	for i, sh := range shards {
		n, err := w.Write([]byte{recTagIndex})
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("vecstore: write shard %d tag: %w", i, err)
		}
		nn, err := sh.WriteTo(w)
		written += nn
		if err != nil {
			return written, fmt.Errorf("vecstore: write shard %d: %w", i, err)
		}
	}
	n, err = w.Write([]byte{recTagGraph})
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("vecstore: write graph tag: %w", err)
	}
	nn, err := g.writeGraphTo(w)
	written += nn
	if err != nil {
		return written, fmt.Errorf("vecstore: write graph: %w", err)
	}
	return written, nil
}

// ReadShards loads a WriteShards stream back into its segment indexes,
// dropping any HNSW graph record a v2 container carries. The encoder
// must match the one used at build time.
func ReadShards(r io.Reader, enc *embed.Encoder) ([]*Index, error) {
	shards, _, err := ReadShardsHNSW(r, enc)
	return shards, err
}

// ReadShardsHNSW loads a WriteShards or WriteShardsHNSW stream back
// into its segment indexes plus the HNSW graph, if one was persisted
// (nil for v1 containers). Triple IDs are renumbered sequentially
// across segments, restoring the combined ID space the segments were
// built over (base IDs first, then each delta segment in append
// order); the graph's nodes bind to the prefix of that space, with
// vectors and triples materialised from the covering segments rather
// than stored twice.
func ReadShardsHNSW(r io.Reader, enc *embed.Encoder) ([]*Index, *HNSW, error) {
	// One shared buffered reader: ReadFrom reuses it (bufio over bufio is
	// the identity), so each segment consumes exactly its own bytes.
	br := bufio.NewReader(r)
	var head [12]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, nil, fmt.Errorf("vecstore: read shards header: %w", err)
	}
	var magic [8]byte
	copy(magic[:], head[:8])
	if magic != shardsMagic && magic != shardsMagicV2 {
		return nil, nil, fmt.Errorf("vecstore: bad shards magic %v", magic)
	}
	tagged := magic == shardsMagicV2
	count := binary.LittleEndian.Uint32(head[8:])
	if count > maxShardCount {
		return nil, nil, fmt.Errorf("vecstore: shard count %d too large", count)
	}
	shards := make([]*Index, 0, count)
	var g *HNSW
	nextID := 0
	for i := 0; i < int(count); i++ {
		if tagged {
			tag, err := br.ReadByte()
			if err != nil {
				return nil, nil, fmt.Errorf("vecstore: record %d tag: %w", i, err)
			}
			switch tag {
			case recTagIndex:
			case recTagGraph:
				if g != nil {
					return nil, nil, fmt.Errorf("vecstore: record %d: duplicate graph record", i)
				}
				gg, err := readGraphFrom(br)
				if err != nil {
					return nil, nil, fmt.Errorf("vecstore: record %d: %w", i, err)
				}
				g = gg
				continue
			default:
				return nil, nil, fmt.Errorf("vecstore: record %d: unknown tag %q", i, tag)
			}
		}
		sh, err := ReadFrom(br, enc)
		if err != nil {
			return nil, nil, fmt.Errorf("vecstore: shard %d: %w", i, err)
		}
		for j := range sh.triples {
			sh.triples[j].ID = nextID
			nextID++
		}
		shards = append(shards, sh)
	}
	if g != nil {
		if err := bindGraph(g, shards, enc); err != nil {
			return nil, nil, err
		}
	}
	return shards, g, nil
}

// bindGraph materialises a freshly-read graph's triples and vectors
// from the segment prefix it covers, expanding the segments' packed rows
// into the dense vectors the graph scores. The graph stores adjacency only;
// its node ids are, by the writer's contract, the first ids of the
// renumbered combined space, so the prefix copy restores exactly the
// (triple, vector) pairs the graph was built over.
func bindGraph(g *HNSW, shards []*Index, enc *embed.Encoder) error {
	nodes := len(g.links)
	g.enc = enc
	g.triples = make([]kg.Triple, 0, nodes)
	g.vecs = make([]embed.Vector, 0, nodes)
	for _, sh := range shards {
		if len(g.triples) == nodes {
			break
		}
		if len(g.triples)+sh.Len() > nodes {
			return fmt.Errorf("vecstore: hnsw graph covers %d triples, not a segment boundary", nodes)
		}
		g.triples = append(g.triples, sh.triples...)
		for r := range sh.triples {
			var v embed.Vector
			sh.rows.expand(r, &v)
			g.vecs = append(g.vecs, v)
		}
	}
	if len(g.triples) != nodes {
		return fmt.Errorf("vecstore: hnsw graph covers %d triples but segments hold %d", nodes, len(g.triples))
	}
	return nil
}
