package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	sqo "repro"
	"repro/internal/magic"
)

// CacheKey returns the canonical cache key for an optimization
// request: a SHA-256 over the parsed program (rendered in canonical
// source syntax), its goal, every integrity constraint, and the
// optimizer pass selection. Requests that differ only in whitespace,
// comments, or atom spelling of the *source text* therefore share a
// key, while any semantic difference — one rule, one constraint, one
// pass toggle — produces a distinct one. The goal's terms are part of
// the key because an outcome stored under it carries its program's
// goal: `?- path(a, Y).` and `?- path(b, Y).` must not share an entry
// that hands one of them the other's goal. sqod keys its own entries on
// the goal's binding pattern instead (patternKey) and puts each
// request's goal back on what it reads.
func CacheKey(p *sqo.Program, ics []sqo.IC, opts sqo.Options) string {
	return hashKey(p, ics, opts, p.GoalAtom().Key())
}

// patternKey is CacheKey with the goal's binding pattern in place of its
// terms, followed by extra, which names what else the entry depends on.
// No rewrite reads a goal constant — the optimizer, elim and the fold
// copy the goal through, and magic puts its constants in the seed rule
// alone, which Prepared.Run binds per request — so `?- path(17, Y).` and
// `?- path(18, Y).` share an entry and `?- path(X, 18).` has its own.
func patternKey(p *sqo.Program, ics []sqo.IC, opts sqo.Options, extra string) string {
	return hashKey(p, ics, opts, p.Query+"\x00"+string(magic.GoalPattern(p.Goal))+"\x00"+extra)
}

func hashKey(p *sqo.Program, ics []sqo.IC, opts sqo.Options, query string) string {
	h := sha256.New()
	fmt.Fprintf(h, "program\x00%s\x00query\x00%s\x00", p.String(), query)
	fmt.Fprintf(h, "ics\x00%d\x00", len(ics))
	for _, ic := range ics {
		fmt.Fprintf(h, "%s\x00", ic.String())
	}
	fmt.Fprintf(h, "opts\x00%t%t%t", opts.NormalizeOrder, opts.LocalRewrite, opts.PushOrder)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64 // lookups served from a stored entry
	Misses    int64 // lookups that ran a fresh rewrite
	Coalesced int64 // lookups that joined an in-flight identical rewrite
	Evictions int64 // entries dropped by LRU pressure
	Size      int   // entries currently stored
}

// Cache is a bounded LRU cache of optimization outcomes keyed by
// CacheKey: the lru of *sqo.Result.
type Cache = lru[*sqo.Result]

// lru is a bounded LRU cache of rewrite outcomes with singleflight
// deduplication: when several requests ask for the same key
// concurrently, exactly one rewrite runs and the rest wait for its
// result. Outcomes are stored by pointer and must be treated as
// immutable by callers.
type lru[V any] struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight[V]
	stats   CacheStats
}

type cacheEntry[V any] struct {
	key string
	res V
}

// flight is one in-progress rewrite that concurrent identical
// requests wait on.
type flight[V any] struct {
	done chan struct{}
	res  V
	err  error
}

// NewCache returns a cache bounded to max entries (max < 1 is treated
// as 1).
func NewCache(max int) *Cache { return newLRU[*sqo.Result](max) }

func newLRU[V any](max int) *lru[V] {
	if max < 1 {
		max = 1
	}
	return &lru[V]{
		max:     max,
		order:   list.New(),
		entries: map[string]*list.Element{},
		flights: map[string]*flight[V]{},
	}
}

// Stats returns a snapshot of the counters.
func (c *lru[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.entries)
	return s
}

// Len returns the number of stored entries.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// get looks the key up and promotes it to most-recently-used. It does
// not touch the hit/miss counters; GetOrCompute owns those.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).res, true
}

// add stores the key, evicting from the LRU tail if over capacity.
func (c *lru[V]) add(key string, res V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry[V]).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry[V]{key: key, res: res})
	for len(c.entries) > c.max {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry[V]).key)
		c.stats.Evictions++
	}
}

// GetOrCompute returns the cached outcome for key, computing it with
// compute on a miss. Concurrent calls with the same key during a miss
// coalesce onto a single compute call (singleflight); the extra
// callers report hit=true, since they did not pay for a rewrite.
// Errors are never cached — every waiter receives the error and a
// later call retries. A waiter whose ctx ends returns early with the
// ctx error while the computation continues for the others.
func (c *lru[V]) GetOrCompute(ctx context.Context, key string, compute func() (V, error)) (res V, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		res := el.Value.(*cacheEntry[V]).res
		c.mu.Unlock()
		return res, true, nil
	}
	if f, ok := c.flights[key]; ok {
		// Someone is already rewriting this exact request: wait.
		c.stats.Coalesced++
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return res, true, f.err
			}
			return f.res, true, nil
		case <-ctx.Done():
			return res, true, ctx.Err()
		}
	}
	// Miss: this caller leads the flight.
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	f.res, f.err = compute()
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return res, false, f.err
	}
	c.add(key, f.res)
	return f.res, false, nil
}
