package serve

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/answer"
	"repro/internal/vecstore"
)

// CacheConfig sizes an answer cache.
type CacheConfig struct {
	// Size is the maximum number of cached answers; <= 0 disables the
	// cache (NewCache returns nil).
	Size int
	// TTL is how long an entry stays servable; 0 means no expiry.
	TTL time.Duration
}

// Cache is an LRU+TTL cache of answer results keyed on the normalised
// (answerer, method, model, query) identity, one entry per key, each
// stamped with the scope it was filled or last revalidated under. Safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	size    int
	ttl     time.Duration
	now     func() time.Time // test hook
	// namespaces numbers the middlewares over this cache, so each keeps
	// its entries apart from every other's.
	namespaces atomic.Uint64

	hits                   atomic.Int64
	misses                 atomic.Int64
	evictions              atomic.Int64
	expirations            atomic.Int64
	revalidated            atomic.Int64
	revalidatedIncremental atomic.Int64
	staleMisses            atomic.Int64
}

// entry is one cached answer with the scope it is valid under and its
// expiry. An entry is replaced, never rewritten, by a fill, so a
// revalidation that read one entry cannot re-stamp another.
type entry struct {
	key   string
	scope string
	// at is the watermark of the index view the entry's read log last
	// held exactly against: the view its run searched (answer.Reads.At)
	// until a replay re-stamps it with scope (answer.Revalidation.At).
	at      vecstore.Token
	result  answer.Result
	expires time.Time // zero = never
}

// NewCache builds a cache; a non-positive size returns nil, which every
// consumer treats as "caching disabled".
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Size <= 0 {
		return nil
	}
	return &Cache{
		entries: make(map[string]*list.Element, cfg.Size),
		order:   list.New(),
		size:    cfg.Size,
		ttl:     cfg.TTL,
		now:     time.Now,
	}
}

// Get returns the cached result for key, if present, unexpired and valid
// under scope. An entry stamped with scope is a plain hit. An entry
// stamped with another scope is revalidated: its read log is replayed
// against the substrate's current snapshot, outside the cache lock, with
// q's prompt overrides and the index view it last replayed against
// (answer.Reads.Revalidate). If every read matches, the entry is
// re-stamped with scope and the replayed view and served with the
// replayed epoch; if not — or it has no log — the lookup is a miss, and
// the caller's fill replaces the entry. The result is an isolated copy:
// mutating its trace cannot corrupt the cached entry, and two hitters of
// the same key cannot corrupt each other.
func (c *Cache) Get(key, scope string, q answer.Query) (answer.Result, bool) {
	if c == nil {
		return answer.Result{}, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return answer.Result{}, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.order.Remove(el)
		delete(c.entries, key)
		c.mu.Unlock()
		c.expirations.Add(1)
		c.misses.Add(1)
		return answer.Result{}, false
	}
	c.order.MoveToFront(el)
	res, stamped, at := e.result, e.scope, e.at
	c.mu.Unlock()
	if stamped != scope {
		rv, valid := res.Reads.Revalidate(q, at)
		if !valid {
			c.staleMisses.Add(1)
			c.misses.Add(1)
			return answer.Result{}, false
		}
		res.Epoch = rv.Epoch
		c.mu.Lock()
		if c.entries[key] == el && el.Value == e && e.scope == stamped {
			e.scope = scope
			e.at = rv.At
			e.result.Epoch = rv.Epoch
		}
		c.mu.Unlock()
		c.revalidated.Add(1)
		if rv.Incremental {
			c.revalidatedIncremental.Add(1)
		}
	}
	c.hits.Add(1)
	return res.Clone(), true
}

// Put stores a result under key as valid under scope, evicting the least
// recently used entry when full. Re-putting an existing key replaces its
// entry, refreshing scope and TTL. The cache keeps its own copy, so the
// producer remains free to hand the original (trace included) to its
// caller.
func (c *Cache) Put(key, scope string, res answer.Result) {
	if c == nil {
		return
	}
	res = res.Clone()
	var expires time.Time
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	e := &entry{key: key, scope: scope, at: res.Reads.At(), result: res, expires: expires}
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.size {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*entry).key)
			c.evictions.Add(1)
		}
	}
	c.entries[key] = c.order.PushFront(e)
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time cache counters snapshot. Hits include the
// revalidated ones, misses the stale ones.
type CacheStats struct {
	Size        int   `json:"size"`
	Capacity    int   `json:"capacity"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Expirations int64 `json:"expirations"`
	// Revalidated counts hits on an entry filled under another scope whose
	// read log replayed exactly; StaleMisses counts lookups where it did
	// not. RevalidatedIncremental is the part of Revalidated whose
	// searches ran on the rows added since the entry's last replay only
	// (the answer package's incremental rule).
	Revalidated            int64 `json:"revalidated"`
	RevalidatedIncremental int64 `json:"revalidated_incremental"`
	StaleMisses            int64 `json:"stale_misses"`
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Size:                   c.Len(),
		Capacity:               c.size,
		Hits:                   c.hits.Load(),
		Misses:                 c.misses.Load(),
		Evictions:              c.evictions.Load(),
		Expirations:            c.expirations.Load(),
		Revalidated:            c.revalidated.Load(),
		RevalidatedIncremental: c.revalidatedIncremental.Load(),
		StaleMisses:            c.staleMisses.Load(),
	}
}

// WithCache answers repeated queries from the cache. Only successful
// results are stored; errors always pass through uncached. Hits report
// the lookup's elapsed time and zero LLM usage (the cost belongs to the
// run that filled the entry). A nil cache yields a no-op middleware.
//
// Entries are keyed per middleware instance, so answerers sharing one
// Cache never see each other's entries. scope, re-evaluated on every
// request, names the state of what the answerer reads — pass the
// substrate binding including the live epoch and prompt fingerprint
// (e.g. "model/kg@epoch#prompts"); a nil scope is the empty one. When the
// scope moves, an entry is served again only if its read log replays
// exactly (Cache.Get), so a scope must move only with what the log
// checks — the substrate's content and the prompt view.
func WithCache(c *Cache, scope ScopeFunc) Middleware {
	return func(inner answer.Answerer) answer.Answerer {
		if c == nil {
			return inner
		}
		ns := strconv.FormatUint(c.namespaces.Add(1), 36)
		return &cachedAnswerer{
			named: named{inner},
			cache: c,
			scope: scopeOrEmpty(scope),
			ns:    [2]string{ns + sepTrace, ns + sepOmitTrace},
		}
	}
}

// cachedAnswerer is the cache middleware. What an entry holds follows the
// request that filled it: under Info.OmitTrace the answer, labels, epoch,
// prompt versions and read log — a few KB, nothing for a hit to deep-copy;
// otherwise the run's whole trace as well (graphs, hit lists, spans: ~12
// KB of pointers on the quick world). The two kinds live under different
// keys, so a trace reader's first ask after a trace-less fill is a miss
// that fills a full entry, never a hit without a trace.
type cachedAnswerer struct {
	named
	cache *Cache
	scope ScopeFunc
	// ns is this middleware's key namespace in the cache, with its
	// separator: ns[0] for full entries, ns[1] for trace-less ones.
	ns [2]string
}

func (a *cachedAnswerer) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	start := time.Now()
	info := infoFrom(ctx)
	omitTrace := info != nil && info.OmitTrace
	ns := a.ns[0]
	if omitTrace {
		ns = a.ns[1]
	}
	k := key(ns, a.inner, q)
	scope := a.scope()
	if info != nil {
		info.CacheUsed = true
	}
	if res, ok := a.cache.Get(k, scope, q); ok {
		if info != nil {
			info.CacheHit = true
		}
		// A hit costs nothing upstream: report the lookup's wall time and
		// zero LLM usage, so clients summing cost over responses never
		// double-count the run that populated the entry.
		res.Elapsed = time.Since(start)
		res.LLMCalls = 0
		res.PromptTokens = 0
		res.CompletionTokens = 0
		return res, nil
	}
	// The fill carries its read log, so a later scope can revalidate it.
	res, err := a.inner.Answer(answer.WithReadLog(ctx), q)
	if err == nil {
		stored := res
		if omitTrace {
			stored.Trace = nil
		}
		a.cache.Put(k, scope, stored)
	}
	// The caller gets the run's own result, trace included, whatever was
	// stored: the metrics layer reads its stage spans.
	return res, err
}
