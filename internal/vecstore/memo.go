package vecstore

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// MemoCounters counts a view's memo lookups (the package comment's memo
// rule): one per (segment, non-zero query) a batch scan asks a memo for.
// The substrate manager owns one and wires it into every view it
// publishes, so the counts survive recomposition as ANNCounters do.
type MemoCounters struct {
	Hits   atomic.Int64
	Misses atomic.Int64
}

// MemoStats describes a view's memos: the lookups its counters have seen
// and the entries its segments hold now.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// memo is one segment's memo of its own batch-scan results: per (query
// text, k), the rows and scores the scan put in the segment's result
// list, in order. Entries are never changed or removed; the memo lives
// and dies with its segment.
type memo struct {
	mu      sync.Mutex
	entries map[memoKey][]scored
}

type memoKey struct {
	text string
	k    int
}

// recall answers from the memo every non-zero query it holds, writing
// the hits into out, counts the lookups into c, and returns how many
// queries it could not answer.
func (idx *Index) recall(qs []batchQuery, k int, out [][]Hit, c *MemoCounters) int {
	hits, misses := 0, 0
	idx.memo.mu.Lock()
	for i := range qs {
		if qs[i].zero {
			continue
		}
		if ranked, ok := idx.memo.entries[memoKey{qs[i].text, k}]; ok {
			out[i] = idx.whole().hits(ranked)
			hits++
		} else {
			misses++
		}
	}
	idx.memo.mu.Unlock()
	if hits > 0 {
		c.Hits.Add(int64(hits))
	}
	if misses > 0 {
		c.Misses.Add(int64(misses))
	}
	return misses
}

// remember stores ranked as the result for (text, k) unless the memo
// already holds one or holds one entry per row of the segment: it fills
// until full, then stops storing.
func (idx *Index) remember(text string, k int, ranked []scored) {
	key := memoKey{text, k}
	idx.memo.mu.Lock()
	defer idx.memo.mu.Unlock()
	if _, ok := idx.memo.entries[key]; ok || len(idx.memo.entries) >= len(idx.triples) {
		return
	}
	if idx.memo.entries == nil {
		idx.memo.entries = make(map[memoKey][]scored)
	}
	// The query text may be a substring of a larger string the caller
	// owns; the key must not keep that alive.
	key.text = strings.Clone(text)
	idx.memo.entries[key] = slices.Clone(ranked)
}

// memoLen returns the number of entries the segment's memo holds.
func (idx *Index) memoLen() int {
	idx.memo.mu.Lock()
	defer idx.memo.mu.Unlock()
	return len(idx.memo.entries)
}
