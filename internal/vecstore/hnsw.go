package vecstore

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/embed"
	"repro/internal/kg"
)

// Default HNSW parameters. M=16 / efConstruction=128 is the standard
// middle of the quality/build-cost curve from the HNSW paper;
// efSearch=96 lands recall@10 comfortably above the CI floor (0.95) on
// the 100k-scale corpora the recall harness exercises.
const (
	DefaultHNSWM              = 16
	DefaultHNSWEfConstruction = 128
	DefaultHNSWEfSearch       = 96
	// DefaultHNSWSeed seeds the level RNG; construction is a pure
	// function of (triples, config), so replay and CI artifacts stay
	// byte-identical across runs and platforms.
	DefaultHNSWSeed = 1

	// maxHNSWLevel caps the exponentially-distributed node level; with
	// mL = 1/ln(16) the probability of drawing a level this high is
	// ~16^-32, so the cap is unreachable in practice and exists only to
	// bound corrupted persisted graphs.
	maxHNSWLevel = 32
)

// HNSWConfig tunes graph construction and search.
type HNSWConfig struct {
	// M is the max neighbors per node on layers above 0 (layer 0 keeps
	// up to 2M). Higher M improves recall at more memory and build cost.
	M int
	// EfConstruction is the candidate beam width during insertion.
	EfConstruction int
	// EfSearch is the beam width of the graph's own BatchSearchWith;
	// wider beams trade latency for recall. A search returns at most
	// min(ef, k) results — callers that need a guaranteed k should keep
	// ef >= k. A Hybrid does not read it: the serving beam is
	// HybridOptions.EfSearch, and its exact fallback covers k > ef.
	EfSearch int
	// Seed drives the level RNG. Zero selects DefaultHNSWSeed, so the
	// zero config is fully deterministic.
	Seed int64
}

func (c HNSWConfig) withDefaults() HNSWConfig {
	if c.M <= 1 {
		c.M = DefaultHNSWM
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = DefaultHNSWEfConstruction
	}
	if c.EfSearch <= 0 {
		c.EfSearch = DefaultHNSWEfSearch
	}
	if c.Seed == 0 {
		c.Seed = DefaultHNSWSeed
	}
	return c
}

// HNSW is a hierarchical navigable small world graph over an exact view's
// first rows: an approximate Searcher whose per-query cost is logarithmic
// in the corpus instead of the exact scan's linear cost. The graph is
// adjacency only: node i is the view's row i, its vector is that row's
// packed form, every comparison — build and search — is packedRows.dot
// against it, and a hit's triple is the one the view resolves the row to.
// Construction is deterministic — node levels come from a seeded RNG and
// every traversal breaks similarity ties by node id — so the same
// triples and config always produce the same graph, the property the
// replay gate depends on. An HNSW is immutable after build and safe for
// concurrent searches.
type HNSW struct {
	cfg HNSWConfig
	// a is the arena the graph covers the first rows of, and chunks the
	// view of those rows the graph was built or bound over.
	a      *Arena
	chunks []chunkView
	// links[i][l] is node i's neighbor list on layer l; len(links[i])-1
	// is the node's top layer.
	links    [][][]int32
	entry    int32
	maxLevel int32
	// id names the graph in a Token (the package comment's watermark).
	id uint64
}

// lastGraphID is the last ID given to a graph.
var lastGraphID atomic.Uint64

// BuildHNSW encodes the triples into a new arena of DefaultShardSize
// chunks and builds the graph over all of them.
func BuildHNSW(enc *embed.Encoder, triples []kg.Triple, cfg HNSWConfig) *HNSW {
	return BuildGraph(BuildSharded(enc, triples, 0), cfg)
}

// BuildGraph constructs the graph over every row of the view: node i is
// row i. Insertion order is row order and all randomness comes from the
// seeded level RNG, so the build is a pure function of (triples, cfg).
func BuildGraph(v *Sharded, cfg HNSWConfig) *HNSW {
	cfg = cfg.withDefaults()
	rows := v.rows
	h := &HNSW{cfg: cfg, a: v.a, chunks: v.chunks, entry: -1, id: lastGraphID.Add(1)}
	h.links = make([][][]int32, rows)
	// Draw every node level up front from the seeded RNG: the level
	// sequence depends only on (seed, node count), never on timing.
	rng := rand.New(rand.NewSource(cfg.Seed))
	mL := 1 / math.Log(float64(cfg.M))
	sc := &buildScratch{
		visited: make([]uint64, (rows+63)/64),
		kept:    make([][embed.Dim]float64, 2*cfg.M),
	}
	for i := range h.links {
		f := -math.Log(rng.Float64()) * mL // u==0 -> +Inf, clamped below
		level := int32(maxHNSWLevel)
		if f < maxHNSWLevel {
			level = int32(f)
		}
		h.insert(int32(i), level, sc)
	}
	return h
}

// buildScratch is the working memory shared across a build's inserts.
type buildScratch struct {
	// visited is searchLayer's bitset, cleared there before use.
	visited []uint64
	// kept holds the widened rows of the neighbors selectNeighbors has kept
	// so far: at most 2M, layer 0's cap.
	kept [][embed.Dim]float64
}

// row returns the chunk holding node i and the node's row in it.
func (h *HNSW) row(i int32) (*chunkView, int) {
	c := int(i) / h.a.size
	return &h.chunks[c], int(i) - c*h.a.size
}

// sim scores node i against a widened query.
func (h *HNSW) sim(q *[embed.Dim]float64, i int32) float64 {
	c, r := h.row(i)
	return c.rows.dot(q, r)
}

// wide returns node i's vector in the form sim takes as its query. The
// product of two widened float32s is exact, so sim(wide(a), b) is
// embed.NormDot over the two dense vectors in either argument order, bit
// for bit: node-with-node comparisons during the build score like
// query-with-node ones.
func (h *HNSW) wide(i int32) [embed.Dim]float64 {
	c, r := h.row(i)
	var v embed.Vector
	c.rows.expand(r, &v)
	return widen(&v)
}

// annCand is a candidate node during graph traversal.
type annCand struct {
	id  int32
	sim float64
}

// candBetter is the deterministic traversal order: similarity
// descending, ties broken by node id ascending.
func candBetter(a, b annCand) bool {
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	return a.id < b.id
}

// annMaxHeap pops the best (highest-similarity) candidate first.
type annMaxHeap []annCand

func (h annMaxHeap) Len() int           { return len(h) }
func (h annMaxHeap) Less(i, j int) bool { return candBetter(h[i], h[j]) }
func (h annMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *annMaxHeap) Push(x any)        { *h = append(*h, x.(annCand)) }
func (h *annMaxHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// annMinHeap pops the worst candidate first — the eviction end of the
// ef-bounded result set.
type annMinHeap []annCand

func (h annMinHeap) Len() int           { return len(h) }
func (h annMinHeap) Less(i, j int) bool { return candBetter(h[j], h[i]) }
func (h annMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *annMinHeap) Push(x any)        { *h = append(*h, x.(annCand)) }
func (h *annMinHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// insert adds node i at the given level.
func (h *HNSW) insert(i, level int32, sc *buildScratch) {
	h.links[i] = make([][]int32, level+1)
	if h.entry < 0 {
		h.entry, h.maxLevel = i, level
		return
	}
	wide := h.wide(i)
	q := &wide
	ep := annCand{id: h.entry, sim: h.sim(q, h.entry)}
	for lc := h.maxLevel; lc > level; lc-- {
		ep = h.greedy(q, ep, lc)
	}
	eps := []annCand{ep}
	for lc := min(level, h.maxLevel); lc >= 0; lc-- {
		w := h.searchLayer(q, eps, h.cfg.EfConstruction, lc, sc.visited)
		sel := h.selectNeighbors(w, h.cfg.M, sc)
		ids := make([]int32, len(sel))
		for n, c := range sel {
			ids[n] = c.id
		}
		h.links[i][lc] = ids
		for _, c := range sel {
			h.connect(c.id, i, lc, sc)
		}
		eps = w
	}
	if level > h.maxLevel {
		h.entry, h.maxLevel = i, level
	}
}

// connect adds node i as a neighbor of n on layer lc, re-pruning n's
// list with the diversity heuristic when it overflows the layer cap.
func (h *HNSW) connect(n, i int32, lc int32, sc *buildScratch) {
	l := append(h.links[n][lc], i)
	mmax := h.degreeBound(int(lc))
	if len(l) <= mmax {
		h.links[n][lc] = l
		return
	}
	nv := h.wide(n)
	cands := make([]annCand, len(l))
	for k, id := range l {
		cands[k] = annCand{id: id, sim: h.sim(&nv, id)}
	}
	sort.Slice(cands, func(a, b int) bool { return candBetter(cands[a], cands[b]) })
	sel := h.selectNeighbors(cands, mmax, sc)
	ids := make([]int32, len(sel))
	for k, c := range sel {
		ids[k] = c.id
	}
	h.links[n][lc] = ids
}

// degreeBound is the most neighbors a node keeps on layer lc: M, and
// 2·M on layer 0.
func (h *HNSW) degreeBound(lc int) int {
	if lc == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// selectNeighbors is the HNSW diversity heuristic (Malkov alg. 4): walk
// candidates best-first, keeping one only if it is closer to the query
// than to every already-kept neighbor, then fill remaining slots with
// the pruned candidates in order. cands must be sorted by candBetter.
func (h *HNSW) selectNeighbors(cands []annCand, m int, sc *buildScratch) []annCand {
	if len(cands) <= m {
		return cands
	}
	sel := make([]annCand, 0, m)
	var pruned []annCand
	for _, c := range cands {
		if len(sel) == m {
			break
		}
		keep := true
		for s := range sel {
			if h.sim(&sc.kept[s], c.id) > c.sim {
				keep = false
				break
			}
		}
		if keep {
			// Widened once here, scored against every later candidate.
			sc.kept[len(sel)] = h.wide(c.id)
			sel = append(sel, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(sel) == m {
			break
		}
		sel = append(sel, c)
	}
	return sel
}

// greedy walks layer lc from ep to the strict local similarity maximum.
// Only strictly-better moves are taken, so the walk terminates and is
// deterministic given the stored neighbor order.
func (h *HNSW) greedy(q *[embed.Dim]float64, ep annCand, lc int32) annCand {
	for {
		improved := false
		for _, n := range h.links[ep.id][lc] {
			if sim := h.sim(q, n); sim > ep.sim {
				ep = annCand{id: n, sim: sim}
				improved = true
			}
		}
		if !improved {
			return ep
		}
	}
}

// searchLayer is the ef-bounded best-first expansion on one layer,
// returning up to ef candidates sorted by candBetter. visited is a
// caller-provided bitset scratch, cleared here.
func (h *HNSW) searchLayer(q *[embed.Dim]float64, eps []annCand, ef int, lc int32, visited []uint64) []annCand {
	clear(visited)
	cand := make(annMaxHeap, 0, ef)
	res := make(annMinHeap, 0, ef+1)
	for _, ep := range eps {
		if visited[ep.id>>6]&(1<<(uint(ep.id)&63)) != 0 {
			continue
		}
		visited[ep.id>>6] |= 1 << (uint(ep.id) & 63)
		cand = append(cand, ep)
		res = append(res, ep)
	}
	heap.Init(&cand)
	heap.Init(&res)
	for len(res) > ef {
		heap.Pop(&res)
	}
	for len(cand) > 0 {
		c := heap.Pop(&cand).(annCand)
		if len(res) >= ef && candBetter(res[0], c) {
			break
		}
		for _, n := range h.links[c.id][lc] {
			if visited[n>>6]&(1<<(uint(n)&63)) != 0 {
				continue
			}
			visited[n>>6] |= 1 << (uint(n) & 63)
			nc := annCand{id: n, sim: h.sim(q, n)}
			if len(res) < ef {
				heap.Push(&res, nc)
				heap.Push(&cand, nc)
			} else if candBetter(nc, res[0]) {
				res[0] = nc
				heap.Fix(&res, 0)
				heap.Push(&cand, nc)
			}
		}
	}
	out := []annCand(res)
	sort.Slice(out, func(a, b int) bool { return candBetter(out[a], out[b]) })
	return out
}

// Len returns the number of indexed triples.
func (h *HNSW) Len() int { return len(h.links) }

// Encoder returns the encoder the rows were embedded with.
func (h *HNSW) Encoder() *embed.Encoder { return h.a.enc }

// Config returns the build/search parameters in effect.
func (h *HNSW) Config() HNSWConfig { return h.cfg }

// SearchVectorEf searches with a pre-encoded vector and an explicit beam
// width, the hook the recall harness uses to sweep ef without
// rebuilding. It returns at most min(ef, k) hits: a beam narrower than k
// cannot fill k slots, the degradation Hybrid's exact fallback (and the
// CI recall gate's doctored low-ef run) is built around.
func (h *HNSW) SearchVectorEf(qv embed.Vector, k, ef int) []Hit {
	if k <= 0 || len(h.links) == 0 || qv.IsZero() {
		return nil
	}
	if ef < 1 {
		ef = 1
	}
	wide := widen(&qv)
	q := &wide
	ep := annCand{id: h.entry, sim: h.sim(q, h.entry)}
	for lc := h.maxLevel; lc > 0; lc-- {
		ep = h.greedy(q, ep, lc)
	}
	visited := make([]uint64, (len(h.links)+63)/64)
	w := h.searchLayer(q, []annCand{ep}, ef, 0, visited)
	if len(w) > k {
		w = w[:k]
	}
	out := make([]Hit, len(w))
	for i, c := range w {
		ch, r := h.row(c.id)
		out[i] = Hit{Triple: ch.triples[r], Score: c.sim}
	}
	// Graph order breaks ties by node id; re-break by surface form for
	// exact parity with every other Searcher.
	sort.SliceStable(out, func(i, j int) bool { return HitBefore(out[i], out[j]) })
	return out
}

// BatchSearchWith searches the graph for each query, with caller-supplied
// embeddings, using the configured EfSearch beam. The graph path is
// purely geometric, so unlike the exact scan the query text takes no part
// in candidate selection.
func (h *HNSW) BatchSearchWith(encode func(string) embed.Vector, queries []string, k int) [][]Hit {
	out := make([][]Hit, len(queries))
	for i, q := range queries {
		out[i] = h.SearchVectorEf(encode(q), k, h.cfg.EfSearch)
	}
	return out
}

// Info describes the graph's shape and its own beam width.
func (h *HNSW) Info() ANNInfo {
	return ANNInfo{
		Nodes:          len(h.links),
		MaxLevel:       int(h.maxLevel),
		M:              h.cfg.M,
		EfConstruction: h.cfg.EfConstruction,
		EfSearch:       h.cfg.EfSearch,
	}
}

var _ Searcher = (*HNSW)(nil)

// hnswMagic opens a persisted graph (a checkpoint's graph.bin); the
// version byte bumps on incompatible changes.
var hnswMagic = [8]byte{'P', 'G', 'A', 'K', 'V', 'H', 'N', 1}

// WriteGraph serialises the graph structure only — config, entry point
// and adjacency lists, the one part of a vector substrate that is
// expensive to rebuild. Triples and vectors are not written: node i is
// triple i of the set the graph was built over, and ReadGraph rebinds it
// to row i of a view of an arena rebuilt from those triples.
func (h *HNSW) WriteGraph(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf [4 * 9]byte
	writeU32s := func(vs ...uint32) {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		bw.Write(buf[:4*len(vs)]) // a failed write sticks and surfaces at Flush
	}
	bw.Write(hnswMagic[:])
	seed := uint64(h.cfg.Seed)
	writeU32s(uint32(len(h.links)), uint32(embed.Dim), uint32(h.cfg.M), uint32(h.cfg.EfConstruction),
		uint32(h.cfg.EfSearch), uint32(h.entry), uint32(h.maxLevel), uint32(seed), uint32(seed>>32))
	for _, layers := range h.links {
		writeU32s(uint32(len(layers)))
		for _, ids := range layers {
			writeU32s(uint32(len(ids)))
			for _, id := range ids {
				writeU32s(uint32(id))
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("vecstore: write hnsw: %w", err)
	}
	return nil
}

// ReadGraph loads a WriteGraph stream and binds it to the view's first
// rows: node i takes the triple and vector of row i. The view must hold,
// in order, the triples the graph was built over (the substrate rebuilds
// its arena from the same checkpoint's triples.nt), and at least as many
// rows as the graph has nodes.
func ReadGraph(r io.Reader, v *Sharded) (*HNSW, error) {
	g, err := readGraphFrom(r, v.rows)
	if err != nil {
		return nil, err
	}
	g.a, g.chunks = v.a, v.chunks[:(len(g.links)+v.a.size-1)/v.a.size]
	return g, nil
}

// readGraphFrom loads a WriteGraph stream of at most maxNodes nodes. The
// returned graph has no arena bound yet — ReadGraph points it at the rows
// it covers. Every structural field is validated so any truncated or
// corrupted prefix fails cleanly, and no count is trusted past what the
// build can produce: the node count is checked against maxNodes before
// any node is read, and each neighbor list against its layer's degree
// bound, so a corrupt header cannot make the reader allocate more than
// its input backs.
func readGraphFrom(r io.Reader, maxNodes int) (*HNSW, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("vecstore: read hnsw: %w", err)
	}
	if magic != hnswMagic {
		return nil, fmt.Errorf("vecstore: bad hnsw magic %v", magic)
	}
	var head [28]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("vecstore: read hnsw header: %w", err)
	}
	nodes := binary.LittleEndian.Uint32(head[0:])
	if uint64(nodes) > uint64(maxNodes) {
		return nil, fmt.Errorf("vecstore: hnsw graph covers %d triples but the view holds %d", nodes, maxNodes)
	}
	dim := binary.LittleEndian.Uint32(head[4:])
	if dim != embed.Dim {
		return nil, fmt.Errorf("vecstore: hnsw dimension mismatch: file has %d, build has %d", dim, embed.Dim)
	}
	h := &HNSW{
		cfg: HNSWConfig{
			M:              int(binary.LittleEndian.Uint32(head[8:])),
			EfConstruction: int(binary.LittleEndian.Uint32(head[12:])),
			EfSearch:       int(binary.LittleEndian.Uint32(head[16:])),
		},
		entry:    int32(binary.LittleEndian.Uint32(head[20:])),
		maxLevel: int32(binary.LittleEndian.Uint32(head[24:])),
		id:       lastGraphID.Add(1),
	}
	var seed [8]byte
	if _, err := io.ReadFull(br, seed[:]); err != nil {
		return nil, fmt.Errorf("vecstore: read hnsw seed: %w", err)
	}
	h.cfg.Seed = int64(binary.LittleEndian.Uint64(seed[:]))
	if h.cfg.M <= 1 || h.cfg.M > 1<<16 {
		return nil, fmt.Errorf("vecstore: hnsw M %d out of range", h.cfg.M)
	}
	if h.maxLevel < 0 || h.maxLevel > maxHNSWLevel {
		return nil, fmt.Errorf("vecstore: hnsw max level %d out of range", h.maxLevel)
	}
	if nodes == 0 {
		if h.entry != -1 {
			return nil, fmt.Errorf("vecstore: empty hnsw with entry %d", h.entry)
		}
	} else if h.entry < 0 || h.entry >= int32(nodes) {
		return nil, fmt.Errorf("vecstore: hnsw entry %d out of range", h.entry)
	}
	readU32 := func() (uint32, error) {
		var buf [4]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:]), nil
	}
	// Grow incrementally instead of trusting the node count up front:
	// corruption fails at the first short read, never as a giant
	// allocation.
	const preallocCap = 1 << 16
	h.links = make([][][]int32, 0, min(int(nodes), preallocCap))
	for i := 0; i < int(nodes); i++ {
		layerCount, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("vecstore: hnsw node %d: %w", i, err)
		}
		if layerCount == 0 || layerCount > maxHNSWLevel+1 {
			return nil, fmt.Errorf("vecstore: hnsw node %d: layer count %d out of range", i, layerCount)
		}
		layers := make([][]int32, layerCount)
		for l := range layers {
			n, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("vecstore: hnsw node %d: %w", i, err)
			}
			if n > nodes || n > uint32(h.degreeBound(l)) {
				return nil, fmt.Errorf("vecstore: hnsw node %d: neighbor count %d out of range", i, n)
			}
			ids := make([]int32, n)
			for j := range ids {
				id, err := readU32()
				if err != nil {
					return nil, fmt.Errorf("vecstore: hnsw node %d: %w", i, err)
				}
				if id >= nodes {
					return nil, fmt.Errorf("vecstore: hnsw node %d: neighbor id %d out of range", i, id)
				}
				ids[j] = int32(id)
			}
			layers[l] = ids
		}
		h.links = append(h.links, layers)
	}
	// Structural pass: traversal indexes links[neighbor][layer], so every
	// edge on layer l must point at a node that reaches layer l, and the
	// entry point must reach maxLevel. Forward references make this
	// impossible to check while streaming.
	if nodes > 0 && len(h.links[h.entry]) <= int(h.maxLevel) {
		return nil, fmt.Errorf("vecstore: hnsw entry %d below max level %d", h.entry, h.maxLevel)
	}
	for i, layers := range h.links {
		for l, ids := range layers {
			for _, id := range ids {
				if len(h.links[id]) <= l {
					return nil, fmt.Errorf("vecstore: hnsw node %d: neighbor %d missing layer %d", i, id, l)
				}
			}
		}
	}
	return h, nil
}
