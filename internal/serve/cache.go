package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/answer"
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
// (method, model, query) identity. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	size    int
	ttl     time.Duration
	now     func() time.Time // test hook

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	expirations atomic.Int64
}

// entry is one cached answer with its expiry.
type entry struct {
	key     string
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

// Get returns the cached result for key, if present and unexpired. The
// result is an isolated copy: mutating its trace cannot corrupt the cached
// entry, and two hitters of the same key cannot corrupt each other.
func (c *Cache) Get(key string) (answer.Result, bool) {
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
	res := e.result
	c.mu.Unlock()
	c.hits.Add(1)
	return res.Clone(), true
}

// Put stores a result under key, evicting the least recently used entry
// when full. Re-putting an existing key refreshes its value and TTL. The
// cache keeps its own copy, so the producer remains free to hand the
// original (trace included) to its caller.
func (c *Cache) Put(key string, res answer.Result) {
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
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		e.result = res
		e.expires = expires
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
	c.entries[key] = c.order.PushFront(&entry{key: key, result: res, expires: expires})
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

// CacheStats is a point-in-time cache counters snapshot.
type CacheStats struct {
	Size        int   `json:"size"`
	Capacity    int   `json:"capacity"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Expirations int64 `json:"expirations"`
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Size:        c.Len(),
		Capacity:    c.size,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
	}
}

// WithCache answers repeated queries from the cache. Only successful
// results are stored; errors always pass through uncached. Hits report
// the lookup's elapsed time and zero LLM usage (the cost belongs to the
// run that filled the entry). A nil cache yields a no-op middleware.
// scope namespaces this answerer's entries within a shared cache,
// re-evaluated on every request — pass the substrate binding including
// the live epoch (e.g. "model/kg@epoch") when one Cache serves answerers
// over different or hot-swappable backends; a nil scope is the empty
// namespace.
func WithCache(c *Cache, scope ScopeFunc) Middleware {
	return func(inner answer.Answerer) answer.Answerer {
		if c == nil {
			return inner
		}
		return &cachedAnswerer{named: named{inner}, cache: c, scope: scopeOrEmpty(scope)}
	}
}

// cachedAnswerer is the cache middleware. What an entry holds follows the
// request that filled it: under Info.OmitTrace the answer, labels, epoch
// and prompt versions — a few hundred bytes, nothing for a hit to
// deep-copy; otherwise the run's whole trace as well (graphs, hit lists,
// spans: ~12 KB of pointers on the quick world). The two kinds live under
// different keys, so a trace reader's first ask after a trace-less fill
// is a miss that fills a full entry, never a hit without a trace.
type cachedAnswerer struct {
	named
	cache *Cache
	scope ScopeFunc
}

func (a *cachedAnswerer) Answer(ctx context.Context, q answer.Query) (answer.Result, error) {
	start := time.Now()
	info := infoFrom(ctx)
	omitTrace := info != nil && info.OmitTrace
	k := key(a.inner, a.scope(), q, omitTrace)
	if info != nil {
		info.CacheUsed = true
	}
	if res, ok := a.cache.Get(k); ok {
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
	res, err := a.inner.Answer(ctx, q)
	if err == nil {
		stored := res
		if omitTrace {
			stored.Trace = nil
		}
		a.cache.Put(k, stored)
	}
	// The caller gets the run's own result, trace included, whatever was
	// stored: the metrics layer reads its stage spans.
	return res, err
}
