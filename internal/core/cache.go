package core

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// entrySeq numbers published entries process-wide, so sequence numbers
// stay unique across engines (a multi-region server runs one per region).
var entrySeq atomic.Uint64

// entryCache is a bounded, byte-accounted LRU over generated forest entries.
// Each entry's footprint is estimated from its matrix dimension, constraint
// pairs, and generation trace; inserting past the bound evicts from the cold
// end until the bound holds again, so the cache never exceeds its capacity —
// even a single oversized entry is dropped rather than stored.
type entryCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[forestKey]*list.Element

	// alias receives each admitted entry's alias-table accounting; evicted
	// entries detach from it so AliasBytes tracks only LRU-pinned tables.
	alias *aliasMetrics

	hits, misses, evictions uint64
}

type cacheItem struct {
	key   forestKey
	entry *ForestEntry
	size  int64
}

func newEntryCache(capacity int64, alias *aliasMetrics) *entryCache {
	c := &entryCache{
		capacity: capacity,
		ll:       list.New(),
		items:    map[forestKey]*list.Element{},
		alias:    alias,
	}
	if alias != nil {
		// Alias builds on cached entries re-run the bound check, so a
		// steady state with no new admissions still cannot outgrow the
		// capacity. Wired before the cache is shared.
		alias.enforce = c.enforceBound
	}
	return c
}

// entrySizeBytes estimates the resident footprint of one forest entry. The
// matrix dominates (8 bytes per cell); pairs, leaves, and the trace are
// accounted so tiny matrices still carry a realistic floor.
func entrySizeBytes(e *ForestEntry) int64 {
	size := int64(256) // struct headers, map slot, list element
	if e.Matrix != nil {
		d := int64(e.Matrix.Dim())
		size += 8 * d * d
	}
	size += 24 * int64(len(e.Pairs))
	size += 24 * int64(len(e.Leaves))
	if e.Result != nil {
		size += 8 * int64(len(e.Result.Trace))
	}
	return size
}

func (c *entryCache) get(key forestKey) (*ForestEntry, bool) {
	return c.lookup(key, true)
}

// peek is get without touching the hit/miss counters. The engine uses it
// for second-look checks on paths that already recorded their miss (the
// post-semaphore re-check and snapshot-load followers), so the counters
// keep meaning "one per request" instead of double-counting.
func (c *entryCache) peek(key forestKey) (*ForestEntry, bool) {
	return c.lookup(key, false)
}

func (c *entryCache) lookup(key forestKey, count bool) (*ForestEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		if count {
			c.misses++
		}
		return nil, false
	}
	if count {
		c.hits++
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).entry, true
}

// add numbers e (see ForestEntry.Seq), inserts it and evicts
// least-recently-used items until the byte bound holds. The new entry
// itself is evicted if it alone exceeds the bound. Admitted entries attach
// to the engine's alias counters; evicted entries detach, so alias bytes
// shrink in step with the matrices they shadow.
//
// The bound covers the cache's full resident footprint: entry sizes plus
// the alias tables lazily built on cached entries (the engine-wide alias
// byte counter tracks exactly the attached set). Both admissions and
// alias builds (via aliasMetrics.enforce) run the eviction loop, so the
// bound holds in steady state too, not just at the next add.
func (c *entryCache) add(key forestKey, e *ForestEntry) {
	// Numbered even when the add loses a race below: the caller may still
	// hand e out.
	if e.seq.Load() == 0 {
		e.seq.CompareAndSwap(0, entrySeq.Add(1))
	}
	size := entrySizeBytes(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*cacheItem)
		if !it.entry.Degraded || e.Degraded {
			// Lost a race with another inserter of the same (or better)
			// quality; refresh recency only.
			c.ll.MoveToFront(el)
			return
		}
		// Optimal entry arriving over a degraded fallback: swap in place so
		// readers atomically switch to the LP-optimal matrix.
		c.bytes -= it.size
		it.entry.detachAliasMetrics()
		if c.alias != nil {
			e.attachAliasMetrics(c.alias)
		}
		it.entry = e
		it.size = size
		c.bytes += size
		c.ll.MoveToFront(el)
		c.evictLocked()
		return
	}
	if c.alias != nil {
		e.attachAliasMetrics(c.alias)
	}
	el := c.ll.PushFront(&cacheItem{key: key, entry: e, size: size})
	c.items[key] = el
	c.bytes += size
	c.evictLocked()
}

// enforceBound evicts cold entries until the byte bound (entries + alias
// tables) holds again; alias builds on cached entries call it.
func (c *entryCache) enforceBound() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
}

// evictLocked runs the LRU eviction loop. Caller holds c.mu.
func (c *entryCache) evictLocked() {
	for c.bytes+c.aliasBytes() > c.capacity && c.ll.Len() > 0 {
		back := c.ll.Back()
		it := back.Value.(*cacheItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= it.size
		c.evictions++
		it.entry.detachAliasMetrics()
	}
}

// aliasBytes reads the resident footprint of alias tables attached to
// cached entries (0 when the cache has no alias accounting).
func (c *entryCache) aliasBytes() int64 {
	if c.alias == nil {
		return 0
	}
	return c.alias.bytes.Load()
}

type cacheStats struct {
	hits, misses, evictions uint64
	bytes                   int64
	entries                 int
}

func (c *entryCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		hits:      c.hits,
		misses:    c.misses,
		evictions: c.evictions,
		bytes:     c.bytes,
		entries:   c.ll.Len(),
	}
}
