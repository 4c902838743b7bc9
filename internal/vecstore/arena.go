package vecstore

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/embed"
	"repro/internal/kg"
)

// Arena is an append-only sequence of indexed rows: row i is the i-th
// triple appended, packed in the row layout and listed under each of its
// distinct tokens. Rows are held in chunks of size rows — chunk c holds
// rows [c·size, (c+1)·size) — so an append writes only to the last chunk
// and never regrows what a full chunk holds. The size is also the block
// size of every view of the arena (the package comment's filter rule), so
// a block of an exact view is one chunk. An arena keeps no triple: a view
// is made with the triples its rows were appended from, and resolves a
// hit's row through them.
//
// Views read an arena the way kg.Prefix reads a kg.Store: a view of the
// first n rows (View) sees only those rows, however many are appended
// later. Append writes under the arena's lock; a view takes the read lock
// to capture the chunks' slice headers when it is made, and again for
// each token lookup in a chunk that was not yet full then — the only
// structure an append still changes. Rows below a view's n are never
// written again, so scoring them needs no lock. Safe for concurrent use.
type Arena struct {
	enc  *embed.Encoder
	size int

	mu     sync.RWMutex
	chunks []*chunk
	rows   int
}

// chunk is up to size consecutive rows of an arena.
type chunk struct {
	rows packedRows
	// inverted maps token -> posting list of the chunk's rows holding it,
	// ascending, counted from the chunk's first row.
	inverted map[string][]int32
}

// NewArena returns an empty arena whose chunks, and the blocks of its
// views, are size rows; a non-positive size uses DefaultShardSize.
func NewArena(enc *embed.Encoder, size int) *Arena {
	if size <= 0 {
		size = DefaultShardSize
	}
	if size > maxRows {
		panic(fmt.Sprintf("vecstore: blocks of %d rows (max %d)", size, maxRows))
	}
	return &Arena{enc: enc, size: size}
}

// Len returns the number of rows appended.
func (a *Arena) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.rows
}

// encoded is a run of triples packed and tokenised, ready to append.
type encoded struct {
	rows packedRows
	toks [][]string
}

// Append encodes the triples and appends them as the next rows, in order.
// It takes them a chunk's worth at a time, so that one batch's encodings
// are garbage before the next is encoded.
func (a *Arena) Append(triples []kg.Triple) {
	for lo := 0; lo < len(triples); lo += a.size {
		a.appendBatch(triples[lo:min(lo+a.size, len(triples))])
	}
}

// run is how many rows one goroutine of an append encodes.
const run = 2048

// appendBatch encodes and tokenises the triples in parallel runs before it
// takes the lock, which covers only copying the packed entries and
// posting the tokens.
func (a *Arena) appendBatch(triples []kg.Triple) {
	parts := make([]encoded, (len(triples)+run-1)/run)
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := triples[p*run : min((p+1)*run, len(triples))]
			e := &parts[p]
			e.rows.reserve(len(part))
			e.toks = make([][]string, len(part))
			for i, t := range part {
				text := t.Text()
				v := a.enc.Encode(text)
				e.rows.appendRow(&v)
				e.toks[i] = distinctTokens(text)
			}
		}()
	}
	wg.Wait()

	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < len(triples); {
		if a.rows%a.size == 0 {
			a.chunks = append(a.chunks, newChunk(parts, i, min(len(triples), i+a.size)))
		}
		c := a.chunks[len(a.chunks)-1]
		e, lo := &parts[i/run], i%run
		at := c.rows.len()
		hi := min(len(e.toks), lo+a.size-at)
		c.rows.appendRows(&e.rows, lo, hi)
		for j, toks := range e.toks[lo:hi] {
			r := int32(at + j)
			for _, tok := range toks {
				post, ok := c.inverted[tok]
				if !ok {
					// The token may be a substring of the triple's text;
					// the key must not keep that alive.
					tok = strings.Clone(tok)
				}
				c.inverted[tok] = append(post, r)
			}
		}
		a.rows += hi - lo
		i += hi - lo
	}
}

// newChunk returns an empty chunk sized for rows [lo, hi) of the encoded
// runs, so a chunk one append fills — every chunk of a boot — holds no
// growth slack.
func newChunk(parts []encoded, lo, hi int) *chunk {
	entries, values := 0, 0
	for i := lo; i < hi; {
		e, j := &parts[i/run], i%run
		k := min(len(e.toks), j+hi-i)
		entries += int(e.rows.off[k] - e.rows.off[j])
		values += int(e.rows.tab[k] - e.rows.tab[j])
		i += k - j
	}
	return &chunk{
		rows: packedRows{
			off: make([]uint32, 1, hi-lo+1), idx: make([]uint8, 0, entries), code: make([]uint8, 0, entries),
			tab: make([]uint32, 1, hi-lo+1), vals: make([]float64, 0, values+tableSpan),
		},
		inverted: make(map[string][]int32),
	}
}

// chunkView is a chunk as a view holds it: the view's triples for its
// rows and the headers of its packed rows, cut to the rows below the
// view's n, and its token index, which is shared with the arena and read
// under mu when mu is set — when the chunk was not full as the view was
// made, so appends may still post to it.
type chunkView struct {
	triples  []kg.Triple
	rows     packedRows
	inverted map[string][]int32
	mu       *sync.RWMutex
}

// cut returns views of the chunks holding rows [0, n), n the number of
// triples, cut to n rows, row i resolving to triples[i].
func (a *Arena) cut(triples []kg.Triple) []chunkView {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := len(triples)
	if n > a.rows {
		panic(fmt.Sprintf("vecstore: a view of %d rows of an arena holding %d", n, a.rows))
	}
	views := make([]chunkView, (n+a.size-1)/a.size)
	for i := range views {
		c := a.chunks[i]
		lo, hi := i*a.size, min(n, (i+1)*a.size)
		views[i] = chunkView{triples: triples[lo:hi:hi], rows: c.rows.prefix(hi - lo), inverted: c.inverted}
		if c.rows.len() < a.size {
			views[i].mu = &a.mu
		}
	}
	return views
}

// posting returns the chunk's posting list for tok; its entries below the
// view's rows are the view's.
func (c *chunkView) posting(tok string) []int32 {
	if c.mu != nil {
		c.mu.RLock()
		defer c.mu.RUnlock()
	}
	return c.inverted[tok]
}

// View returns the exact view of the arena's first len(triples) rows, row
// i resolving to triples[i]: the triples the rows were appended from, in
// order. The view keeps the slice, not a copy, so its first len(triples)
// elements must not change while the view is in use — a kg.Prefix's
// Triples, which only the store's appends follow, are such a slice.
func (a *Arena) View(triples []kg.Triple) *Sharded {
	n := len(triples)
	chunks := a.cut(triples)
	return &Sharded{a: a, chunks: chunks, rows: n, blocks: cutBlocks(chunks, a.size, 0, 0, n)}
}
