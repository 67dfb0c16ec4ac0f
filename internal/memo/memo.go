// Package memo provides a concurrency-safe singleflight result cache
// with an optional size-bounded LRU eviction layer.
//
// The cache was born as the run memo of internal/experiments (PR 1),
// where it coordinates the parallel artifact scheduler: the first
// request for a key computes the value while concurrent duplicates
// block on a per-key latch and share the result, so no computation is
// ever executed twice no matter how many workers race for it. Promoted
// here, the same machinery backs long-lived consumers — most notably
// the lapserved result cache — which additionally need a bound on
// resident entries; New's maxEntries enables least-recently-used
// eviction of *completed* entries (in-flight computations are never
// evicted, so the singleflight guarantee survives any bound).
//
// Failure domain (PR 3): DoErr computes values that can fail. A failed
// computation is never cached — the entry is dropped so a later request
// (a retry after backoff, say) recomputes instead of recalling the
// failure — but callers already blocked on the in-flight latch receive
// the same error, so one failing compute costs one execution, exactly
// like one succeeding compute. A compute that panics propagates to the
// goroutine that owns it (after the poisoned entry is dropped); its
// waiters receive ErrComputeFailed rather than silently observing a
// zero value.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
)

// ErrComputeFailed is delivered to callers that were waiting on an
// in-flight computation that panicked. (Callers waiting on a compute
// that returned an error receive that error itself.)
var ErrComputeFailed = errors.New("memo: in-flight computation panicked")

// Cache is a singleflight memo from comparable keys to values. The zero
// value is not ready to use; construct with New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int                // 0 = unbounded
	entries map[K]*entry[K, V] // all entries, including in-flight
	order   *list.List         // completed entries, most recent at front

	computed atomic.Uint64
	recalled atomic.Uint64
	evicted  atomic.Uint64
	failed   atomic.Uint64

	// onEvict, when set, receives every key the LRU bound drops. Called
	// outside the cache lock, after the eviction took effect.
	onEvict atomic.Pointer[func(key K)]
}

// SetEvictObserver installs (or, with nil, removes) a hook receiving
// each key evicted by the LRU bound — an eviction storm is the cache
// thrashing, which operators want surfaced as events, not just a
// counter. The hook runs outside the cache lock on the goroutine whose
// insert triggered the eviction; it must not block for long.
func (c *Cache[K, V]) SetEvictObserver(fn func(key K)) {
	if fn == nil {
		c.onEvict.Store(nil)
		return
	}
	c.onEvict.Store(&fn)
}

// entry is one key's slot; done is closed once res/err are valid. elem
// is the entry's node in the LRU order list, nil while the computation
// is in flight (in-flight entries are exempt from eviction).
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	res  V
	err  error
	elem *list.Element
}

// New returns an empty cache. maxEntries bounds the number of resident
// completed entries, evicting least-recently-used ones past the bound;
// 0 (or negative) means unbounded.
func New[K comparable, V any](maxEntries int) *Cache[K, V] {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cache[K, V]{
		max:     maxEntries,
		entries: map[K]*entry[K, V]{},
		order:   list.New(),
	}
}

// Do returns the memoised value for key, computing it at most once per
// cache generation: the first caller runs compute while concurrent
// duplicates block on the entry's latch and share its result.
func (c *Cache[K, V]) Do(key K, compute func() V) V {
	v, _, _ := c.do(context.Background(), key, func() (V, error) { return compute(), nil })
	return v
}

// DoCtx is Do with a bounded wait: a caller that would block on another
// goroutine's in-flight computation gives up when ctx is done, returning
// the zero value and ctx's error. The computation itself is never
// cancelled — the caller that owns it runs compute to completion
// regardless of its own ctx, so waiters that stay see a valid result.
func (c *Cache[K, V]) DoCtx(ctx context.Context, key K, compute func() V) (V, error) {
	v, _, err := c.do(ctx, key, func() (V, error) { return compute(), nil })
	return v, err
}

// DoErr is the failure-aware variant: compute may return an error, in
// which case nothing is cached — the entry is dropped so a later request
// for the same key recomputes (this is what makes bounded retry with
// backoff meaningful upstream) — while concurrent callers already
// waiting on the in-flight latch receive the same error. Successful
// values cache exactly as with Do. The wait is bounded by ctx like
// DoCtx.
func (c *Cache[K, V]) DoErr(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	v, _, err := c.do(ctx, key, compute)
	return v, err
}

// DoErrStat is DoErr plus provenance: computed reports whether THIS call
// executed compute (successfully or not), as opposed to recalling a
// cached value or sharing another caller's in-flight outcome. Upstream
// health machinery (the lapserved circuit breaker) needs the
// distinction — a recall executes no simulation and proves nothing about
// the simulator, so only computed outcomes may move the breaker.
func (c *Cache[K, V]) DoErrStat(ctx context.Context, key K, compute func() (V, error)) (v V, computed bool, err error) {
	return c.do(ctx, key, compute)
}

// Peek returns key's value without blocking and without a compute
// function: it hits only entries whose computation has already completed
// successfully, counts as a recall, and touches the entry's LRU
// position. In-flight entries miss — a caller that wants to wait for
// them uses Do/DoErr. The fast path lets servers answer cached keys
// without consuming an execution slot.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	var zero V
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return zero, false
	}
	select {
	case <-e.done:
	default: // still in flight
		c.mu.Unlock()
		return zero, false
	}
	if e.err != nil {
		// Unreachable in practice — failed entries are dropped before
		// their latch closes — but guard the invariant anyway.
		c.mu.Unlock()
		return zero, false
	}
	if e.elem != nil {
		c.order.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	c.recalled.Add(1)
	return e.res, true
}

func (c *Cache[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		// Recall-vs-compute provenance in traces: a request that found an
		// entry (completed or in flight) spends its time here, not in
		// memo.compute.
		_, sp := otrace.Start(ctx, "memo.await")
		select {
		case <-e.done:
			sp.End()
			return c.waited(e)
		case <-ctx.Done():
			// Both latch and ctx can be ready; select picks arbitrarily.
			// A result that is already available must win over a
			// cancellation — the caller asked for the value and it is
			// right there — so re-check the latch before giving up.
			select {
			case <-e.done:
				sp.End()
				return c.waited(e)
			default:
			}
			sp.SetAttr(otrace.Bool("cancelled", true))
			sp.End()
			var zero V
			return zero, false, ctx.Err()
		}
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	completed := false
	defer func() {
		if !completed && e.err == nil {
			// compute panicked: the panic propagates to this caller, but
			// waiters on the latch must not observe a zero value as if it
			// were a result.
			e.err = ErrComputeFailed
		}
		if e.err != nil {
			// Failed entries are poisoned: drop them so a retry (or the
			// serial pass after a panicking warm pass) recomputes rather
			// than recalling the failure.
			c.failed.Add(1)
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	_, sp := otrace.Start(ctx, "memo.compute")
	e.res, e.err = compute()
	completed = true
	sp.SetAttr(otrace.Bool("failed", e.err != nil))
	sp.End()
	if e.err != nil {
		var zero V
		return zero, true, e.err
	}
	c.computed.Add(1)

	c.mu.Lock()
	// A concurrent Reset may have replaced the map; only entries still
	// resident join the LRU order (and become evictable).
	var dropped []K
	if c.entries[key] == e {
		e.elem = c.order.PushFront(e)
		dropped = c.evictLocked()
	}
	c.mu.Unlock()
	if len(dropped) > 0 {
		if fn := c.onEvict.Load(); fn != nil {
			for _, k := range dropped {
				(*fn)(k)
			}
		}
	}
	return e.res, true, nil
}

// waited delivers a completed entry's outcome to a caller that waited on
// (or found) its latch: the shared error, or the value as a recall.
func (c *Cache[K, V]) waited(e *entry[K, V]) (V, bool, error) {
	if e.err != nil {
		var zero V
		return zero, false, e.err
	}
	c.recalled.Add(1)
	return e.res, false, nil
}

// evictLocked drops least-recently-used completed entries until the
// bound holds, returning the dropped keys (for the evict observer,
// which runs after the lock is released). In-flight entries are not in
// the order list, so a burst of concurrent distinct computations can
// transiently exceed the bound by the in-flight count; they become
// evictable on completion.
func (c *Cache[K, V]) evictLocked() []K {
	if c.max <= 0 {
		return nil
	}
	var dropped []K
	for c.order.Len() > c.max {
		back := c.order.Back()
		e := back.Value.(*entry[K, V])
		c.order.Remove(back)
		if c.entries[e.key] == e {
			delete(c.entries, e.key)
		}
		c.evicted.Add(1)
		if c.onEvict.Load() != nil {
			dropped = append(dropped, e.key)
		}
	}
	return dropped
}

// Contains reports whether key has an entry, completed or in flight,
// without counting a recall or touching its recency.
func (c *Cache[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Forget drops key's completed entry, so its value can be collected
// once no caller holds it, and reports whether one was resident. An
// in-flight entry is left alone: its compute and waiters finish as
// usual.
func (c *Cache[K, V]) Forget(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		return false
	}
	c.order.Remove(e.elem)
	delete(c.entries, key)
	return true
}

// Len reports the number of resident entries, including in-flight ones.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset clears the cache. Contract under concurrency: the entry map is
// swapped under the lock, so it is safe to call with computations in
// flight — those complete and deliver results to callers already
// waiting on their latch, but become invisible to requests that start
// after the reset, which recompute into the fresh cache. The Stats
// counters are cumulative and survive a reset.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.entries = map[K]*entry[K, V]{}
	c.order = list.New()
	c.mu.Unlock()
}

// Stats counts cache activity since construction. Computed is the
// number of computations that executed successfully, Recalled the number
// of requests served from the cache (including requests that waited on
// an in-flight computation), Evicted the number of completed entries
// dropped by the LRU bound, and Failed the number of computations that
// returned an error or panicked (none of which were cached). Reset does
// not touch the counters, so deltas around a code region meter its
// computation cost.
type Stats struct {
	Computed uint64 `json:"computed"`
	Recalled uint64 `json:"recalled"`
	Evicted  uint64 `json:"evicted"`
	Failed   uint64 `json:"failed"`
}

// Register exposes the cache's counters (and resident-entry gauge) on an
// optional obs registry under prefix (e.g. "lapserved_memo"). The cache
// keeps mutating its own atomics — registration adds scrape-time readers
// only, so the hot path is untouched and a nil registry is a no-op.
func (c *Cache[K, V]) Register(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"_computed_total",
		"Computations executed successfully.", c.computed.Load)
	r.CounterFunc(prefix+"_recalled_total",
		"Requests served from the cache, including waits on in-flight computations.", c.recalled.Load)
	r.CounterFunc(prefix+"_evicted_total",
		"Completed entries dropped by the LRU bound.", c.evicted.Load)
	r.CounterFunc(prefix+"_failed_total",
		"Computations that returned an error or panicked (never cached).", c.failed.Load)
	r.GaugeFunc(prefix+"_entries",
		"Resident entries, including in-flight computations.",
		func() float64 { return float64(c.Len()) })
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Computed: c.computed.Load(),
		Recalled: c.recalled.Load(),
		Evicted:  c.evicted.Load(),
		Failed:   c.failed.Load(),
	}
}
