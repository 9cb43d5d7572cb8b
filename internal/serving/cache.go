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

// queryCache is a sharded LRU cache of encoded /search response bodies
// with per-key singleflight. A key hashes (FNV-1a) to one shard; each
// shard is an independent mutex + map + recency list, so concurrent
// clients contend only when they collide on a shard rather than on one
// global lock. Hit, miss, coalesced and eviction counts are process-wide
// atomics surfaced in /stats.
//
// A nil *queryCache is valid and means caching is disabled:
// getOrCompute always computes and nothing is stored.
type queryCache struct {
	shards    []cacheShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu     sync.Mutex
	cap    int
	m      map[queryKey]*list.Element
	ll     *list.List // front = most recently used; values are *cacheEntry
	flight map[queryKey]*flightCall
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

// newQueryCache builds a cache holding at most capacity entries spread
// over nShards shards (capacity rounds up to a multiple of nShards).
// Capacity <= 0 disables caching by returning nil.
func newQueryCache(nShards, capacity int) *queryCache {
	if capacity <= 0 {
		return nil
	}
	if nShards < 1 {
		nShards = 1
	}
	if nShards > capacity {
		nShards = capacity
	}
	per := (capacity + nShards - 1) / nShards
	c := &queryCache{shards: make([]cacheShard, nShards)}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].m = make(map[queryKey]*list.Element, per+1)
		c.shards[i].ll = list.New()
		c.shards[i].flight = make(map[queryKey]*flightCall)
	}
	return c
}

// shard hashes the key to its shard with FNV-1a over all fields.
func (c *queryCache) shard(k queryKey) *cacheShard {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for s := 0; s < 64; s += 8 {
		h = (h ^ (k.gen >> s & 0xff)) * prime64
	}
	for i := 0; i < len(k.q); i++ {
		h = (h ^ uint64(k.q[i])) * prime64
	}
	h = (h ^ uint64(k.k)) * prime64
	for i := 0; i < len(k.rank); i++ {
		h = (h ^ uint64(k.rank[i])) * prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// insertLocked adds an entry and reports whether an LRU victim was
// evicted. Caller holds s.mu and is k's flight leader, so k is not cached:
// it was absent when the flight was registered and only a leader inserts.
func (s *cacheShard) insertLocked(k queryKey, body []byte) (evicted bool) {
	s.m[k] = s.ll.PushFront(&cacheEntry{key: k, body: body})
	if s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.m, back.Value.(*cacheEntry).key)
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
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		s.ll.MoveToFront(e)
		body := e.Value.(*cacheEntry).body
		s.mu.Unlock()
		c.hits.Add(1)
		return body, nil
	}
	if fl, ok := s.flight[k]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		<-fl.done
		return fl.body, fl.err
	}
	fl := &flightCall{done: make(chan struct{})}
	s.flight[k] = fl
	s.mu.Unlock()
	c.misses.Add(1)

	fl.body, fl.err = compute()
	evicted := false
	s.mu.Lock()
	delete(s.flight, k)
	if fl.err == nil {
		evicted = s.insertLocked(k, fl.body)
	}
	s.mu.Unlock()
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
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.ll.Front(); e != nil; {
			next := e.Next()
			if ent := e.Value.(*cacheEntry); ent.key.gen != keep {
				s.ll.Remove(e)
				delete(s.m, ent.key)
			}
			e = next
		}
		s.mu.Unlock()
	}
}

// counters returns the lifetime hit, miss, coalesced and eviction counts.
func (c *queryCache) counters() (hits, misses, coalesced, evictions uint64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.coalesced.Load(), c.evictions.Load()
}

// entries returns the current number of live entries across shards.
func (c *queryCache) entries() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// capacity returns the maximum number of entries the cache can hold.
func (c *queryCache) capacity() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}
