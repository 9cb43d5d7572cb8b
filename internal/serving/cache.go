package serving

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// queryKey identifies one cacheable search request. The generation id is
// part of the key: the index and the score vectors are immutable within a
// generation, so a cached response can never go stale — a refresh swap
// changes the id, which makes every older entry unreachable instantly and
// atomically with the swap. Stale entries are then reclaimed by purge (or
// by ordinary LRU pressure).
type queryKey struct {
	gen  uint64
	q    string
	k    int
	rank string
}

// queryCache is an LRU cache of encoded /search response bodies with
// per-key singleflight: one mutex over a map, a recency list and the
// in-progress flights (sixteen hash-selected shards measured no faster
// on 2 vCPUs). Hit, miss, coalesced and eviction counts are atomics
// surfaced in /stats.
//
// A nil *queryCache is valid and means caching is disabled:
// getOrCompute always computes and nothing is stored.
type queryCache struct {
	mu     sync.Mutex
	cap    int
	m      map[queryKey]*list.Element
	ll     *list.List // front = most recently used; values are *cacheEntry
	flight map[queryKey]*flightCall

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry struct {
	key  queryKey
	body []byte
}

// flightCall is one in-progress compute that waiters coalesce onto.
// body and err are written before done closes and read only after.
type flightCall struct {
	done chan struct{}
	body []byte
	err  error
}

// newQueryCache builds a cache holding at most capacity entries.
// Capacity <= 0 disables caching by returning nil.
func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		return nil
	}
	return &queryCache{
		cap:    capacity,
		m:      make(map[queryKey]*list.Element, capacity+1),
		ll:     list.New(),
		flight: make(map[queryKey]*flightCall),
	}
}

// insertLocked adds an entry and reports whether an LRU victim was
// evicted. Caller holds c.mu and is k's flight leader, so k is not cached:
// it was absent when the flight was registered and only a leader inserts.
func (c *queryCache) insertLocked(k queryKey, body []byte) (evicted bool) {
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, body: body})
	if c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).key)
		evicted = true
	}
	return evicted
}

// getOrCompute returns the cached body for the key or computes it with
// per-key singleflight: when N requests miss the same cold key
// concurrently, exactly one runs compute and the rest wait for its result
// — without this, every refresh swap (which empties the effective cache)
// turns the next burst of popular queries into a stampede of identical
// searches. Compute errors are returned to the leader and every waiter
// and are never cached. Waiters of a successful flight count as
// coalesced, not as hits or misses.
func (c *queryCache) getOrCompute(k queryKey, compute func() ([]byte, error)) ([]byte, error) {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.ll.MoveToFront(e)
		body := e.Value.(*cacheEntry).body
		c.mu.Unlock()
		c.hits.Add(1)
		return body, nil
	}
	if fl, ok := c.flight[k]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.body, fl.err
	}
	fl := &flightCall{done: make(chan struct{})}
	c.flight[k] = fl
	c.mu.Unlock()
	c.misses.Add(1)

	fl.body, fl.err = compute()
	evicted := false
	c.mu.Lock()
	delete(c.flight, k)
	if fl.err == nil {
		evicted = c.insertLocked(k, fl.body)
	}
	c.mu.Unlock()
	close(fl.done)
	if evicted {
		c.evictions.Add(1)
	}
	return fl.body, fl.err
}

// purge drops every cached entry whose generation differs from keep —
// called after a refresh swap to release the old generation's responses.
// In-progress flights are left alone: they hold pre-swap keys, finish
// into entries no future request can look up, and age out via LRU.
func (c *queryCache) purge(keep uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.Front(); e != nil; {
		next := e.Next()
		if ent := e.Value.(*cacheEntry); ent.key.gen != keep {
			c.ll.Remove(e)
			delete(c.m, ent.key)
		}
		e = next
	}
}

// counters returns the lifetime hit, miss, coalesced and eviction counts.
func (c *queryCache) counters() (hits, misses, coalesced, evictions uint64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.coalesced.Load(), c.evictions.Load()
}

// entries returns the current number of live entries.
func (c *queryCache) entries() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// capacity returns the maximum number of entries the cache can hold.
func (c *queryCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}
