package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoComputesOnceAndRecalls(t *testing.T) {
	c := New[string, int](0)
	calls := 0
	compute := func() int { calls++; return 42 }
	if got := c.Do("k", compute); got != 42 {
		t.Fatalf("first Do = %d", got)
	}
	if got := c.Do("k", compute); got != 42 {
		t.Fatalf("second Do = %d", got)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Computed != 1 || s.Recalled != 1 || s.Evicted != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSingleflight races many goroutines on one fresh key and requires
// exactly one compute, with every caller observing its result.
func TestSingleflight(t *testing.T) {
	c := New[string, string](0)
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 32
	results := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.Do("key", func() string {
				<-release // hold the latch so duplicates must wait
				computes.Add(1)
				return "only-once"
			})
		}()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if r != "only-once" {
			t.Fatalf("caller %d observed %q", i, r)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache size = %d, want 1", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int](2)
	c.Do(1, func() int { return 1 })
	c.Do(2, func() int { return 2 })
	// Touch 1 so it is most recent; inserting 3 must evict 2.
	c.Do(1, func() int { t.Fatal("1 recomputed"); return 0 })
	c.Do(3, func() int { return 3 })
	if c.Len() != 2 {
		t.Fatalf("cache size = %d, want 2", c.Len())
	}
	recomputed := false
	c.Do(2, func() int { recomputed = true; return 2 })
	if !recomputed {
		t.Fatal("evicted key 2 was still cached")
	}
	// Re-inserting 2 evicted the then-LRU key 1; 3 must still be cached.
	c.Do(3, func() int { t.Fatal("retained key 3 recomputed"); return 0 })
	if got := c.Stats().Evicted; got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 1000; i++ {
		c.Do(i, func() int { return i })
	}
	if c.Len() != 1000 {
		t.Fatalf("cache size = %d, want 1000", c.Len())
	}
	if s := c.Stats(); s.Evicted != 0 {
		t.Fatalf("evicted = %d, want 0", s.Evicted)
	}
}

// TestInFlightExemptFromEviction overflows a size-1 cache with entries
// while another key's computation is still in flight; the in-flight
// entry must survive and deliver its result to a waiter.
func TestInFlightExemptFromEviction(t *testing.T) {
	c := New[string, int](1)
	release := make(chan struct{})
	started := make(chan struct{})
	var slow int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.Do("slow", func() int { close(started); <-release; return 7 })
	}()
	<-started
	go func() {
		defer wg.Done()
		slow = c.Do("slow", func() int { t.Error("duplicate compute"); return 0 })
	}()
	for i := 0; i < 10; i++ {
		c.Do(fmt.Sprintf("filler-%d", i), func() int { return i })
	}
	close(release)
	wg.Wait()
	if slow != 7 {
		t.Fatalf("waiter observed %d, want 7", slow)
	}
}

func TestPanicDoesNotPoison(t *testing.T) {
	c := New[string, int](0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic to propagate")
			}
		}()
		c.Do("k", func() int { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatalf("poisoned entry survived: size = %d", c.Len())
	}
	if got := c.Do("k", func() int { return 9 }); got != 9 {
		t.Fatalf("retry after panic = %d", got)
	}
}

// TestDoErrFailureNotCached: a compute error reaches the caller, is
// counted in Stats.Failed, and leaves no entry behind — the retry
// recomputes and its success caches normally.
func TestDoErrFailureNotCached(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")
	calls := 0
	_, err := c.DoErr(context.Background(), "k", func() (int, error) { calls++; return 0, boom })
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry cached: size = %d", c.Len())
	}
	v, err := c.DoErr(context.Background(), "k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	// The success is now cached like any Do value.
	v, err = c.DoErr(context.Background(), "k", func() (int, error) { t.Error("recompute"); return 0, nil })
	if err != nil || v != 7 {
		t.Fatalf("recall = %d, %v", v, err)
	}
	s := c.Stats()
	if s.Failed != 1 || s.Computed != 1 || s.Recalled != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDoErrWaitersShareFailure: duplicates blocked on a failing in-flight
// compute all receive the error without triggering extra computes, and a
// later caller recomputes fresh.
func TestDoErrWaitersShareFailure(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	var computes atomic.Int64
	go func() {
		c.DoErr(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			computes.Add(1)
			return 0, boom
		})
	}()
	<-started
	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.DoErr(context.Background(), "k", func() (int, error) {
				t.Error("waiter recomputed while in flight")
				return 0, nil
			})
		}()
	}
	// Waiters attach to the in-flight latch before we release it. There
	// is no handle to observe "blocked", so give them a moment; a late
	// attacher would still see the dropped entry and recompute, which the
	// t.Error in their compute would catch.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != boom {
			t.Fatalf("waiter %d err = %v, want boom", i, err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry cached: size = %d", c.Len())
	}
}

// TestDoErrPanicWaitersGetError: a panicking compute still propagates to
// its owner, but latched waiters receive ErrComputeFailed instead of a
// silent zero value.
func TestDoErrPanicWaitersGetError(t *testing.T) {
	c := New[string, int](0)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to computing caller")
			}
		}()
		c.DoErr(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	done := make(chan error, 1)
	go func() {
		_, err := c.DoErr(context.Background(), "k", func() (int, error) {
			t.Error("waiter recomputed while in flight")
			return 0, nil
		})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-done; !errors.Is(err, ErrComputeFailed) {
		t.Fatalf("waiter err = %v, want ErrComputeFailed", err)
	}
	if got := c.Stats().Failed; got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
}

func TestResetForcesRecompute(t *testing.T) {
	c := New[string, int](0)
	c.Do("k", func() int { return 1 })
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("size after reset = %d", c.Len())
	}
	recomputed := false
	c.Do("k", func() int { recomputed = true; return 2 })
	if !recomputed {
		t.Fatal("entry survived reset")
	}
	if s := c.Stats(); s.Computed != 2 {
		t.Fatalf("computed = %d, want 2 (counters survive reset)", s.Computed)
	}
}

func TestDoCtxTimesOutWaiters(t *testing.T) {
	c := New[string, int](0)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do("k", func() int { close(started); <-release; return 1 })
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := c.DoCtx(ctx, "k", func() int { t.Error("duplicate compute"); return 0 })
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	close(release)
	// A post-completion caller still recalls the computed value.
	v, err := c.DoCtx(context.Background(), "k", func() int { t.Error("recompute"); return 0 })
	if err != nil || v != 1 {
		t.Fatalf("post-completion DoCtx = %d, %v", v, err)
	}
}

// TestDoErrStatProvenance: computed is true exactly when this call
// executed compute — including a compute that failed — and false for
// recalls and for waiters sharing an in-flight outcome.
func TestDoErrStatProvenance(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")

	_, computed, err := c.DoErrStat(context.Background(), "bad", func() (int, error) { return 0, boom })
	if err != boom || !computed {
		t.Fatalf("failing execution: computed=%v err=%v, want true/boom", computed, err)
	}

	v, computed, err := c.DoErrStat(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || !computed {
		t.Fatalf("first execution: v=%d computed=%v err=%v", v, computed, err)
	}
	v, computed, err = c.DoErrStat(context.Background(), "k", func() (int, error) {
		t.Error("recompute of cached key")
		return 0, nil
	})
	if err != nil || v != 7 || computed {
		t.Fatalf("recall: v=%d computed=%v err=%v, want 7/false/nil", v, computed, err)
	}

	// A waiter sharing an in-flight computation is not the executor.
	release := make(chan struct{})
	started := make(chan struct{})
	go c.DoErrStat(context.Background(), "slow", func() (int, error) {
		close(started)
		<-release
		return 9, nil
	})
	<-started
	done := make(chan bool, 1)
	go func() {
		_, waiterComputed, _ := c.DoErrStat(context.Background(), "slow", func() (int, error) {
			t.Error("waiter recomputed while in flight")
			return 0, nil
		})
		done <- waiterComputed
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if <-done {
		t.Fatal("waiter reported computed=true for a shared in-flight result")
	}
}

// TestPeek: Peek hits only completed successful entries, never blocks,
// counts as a recall, and refreshes the entry's LRU position.
func TestPeek(t *testing.T) {
	c := New[string, int](0)
	if _, ok := c.Peek("missing"); ok {
		t.Fatal("Peek hit a key that was never computed")
	}

	// In-flight entries miss without blocking.
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do("slow", func() int { close(started); <-release; return 1 })
	<-started
	if _, ok := c.Peek("slow"); ok {
		t.Fatal("Peek hit an in-flight entry")
	}
	close(release)

	c.Do("k", func() int { return 42 })
	before := c.Stats().Recalled
	v, ok := c.Peek("k")
	if !ok || v != 42 {
		t.Fatalf("Peek = %d, %v, want 42, true", v, ok)
	}
	if got := c.Stats().Recalled; got != before+1 {
		t.Fatalf("recalled = %d, want %d", got, before+1)
	}
}

// TestPeekTouchesLRU: a Peek must refresh recency exactly like Do, so
// hot cached keys served via the fast path are not the first evicted.
func TestPeekTouchesLRU(t *testing.T) {
	c := New[int, int](2)
	c.Do(1, func() int { return 1 })
	c.Do(2, func() int { return 2 })
	if _, ok := c.Peek(1); !ok { // 1 becomes most recent
		t.Fatal("Peek missed a cached key")
	}
	c.Do(3, func() int { return 3 }) // must evict 2, not 1
	if _, ok := c.Peek(1); !ok {
		t.Fatal("Peek-touched key 1 was evicted")
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("LRU key 2 survived past the bound")
	}
}

// TestWaiterPrefersResultOverCancelledCtx is the select-race regression:
// when the result latch is already closed AND ctx is already done, the
// waiter must deliver the result, not the cancellation. Pre-fix, select
// picked arbitrarily between the two ready channels, so this failed
// nondeterministically; loop to make the race likely.
func TestWaiterPrefersResultOverCancelledCtx(t *testing.T) {
	c := New[int, int](0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled before any call
	for i := 0; i < 200; i++ {
		c.Do(i, func() int { return i * 10 }) // entry completed: latch closed
		v, computed, err := c.DoErrStat(ctx, i, func() (int, error) {
			t.Error("recompute of completed entry")
			return 0, nil
		})
		if err != nil {
			t.Fatalf("iteration %d: err = %v, want the completed result", i, err)
		}
		if v != i*10 || computed {
			t.Fatalf("iteration %d: v=%d computed=%v, want %d/false", i, v, computed, i*10)
		}
	}
}

// TestHammer drives duplicate keys, concurrent resets, and a tight LRU
// bound through the cache; it exists chiefly for go test -race.
func TestHammer(t *testing.T) {
	c := New[int, string](5)
	const (
		goroutines = 16
		iterations = 300
		keys       = 11
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := i % keys
				want := fmt.Sprintf("v-%d", k)
				if got := c.Do(k, func() string { return want }); got != want {
					t.Errorf("key %d returned %q", k, got)
					return
				}
				if i%50 == 0 && g == 0 {
					c.Reset()
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Len(); n > 5+goroutines {
		t.Fatalf("cache size %d exceeds bound plus in-flight slack", n)
	}
}

// TestEvictObserver: the LRU bound surfaces dropped keys through the
// observer, outside the lock, in eviction order.
func TestEvictObserver(t *testing.T) {
	c := New[string, int](2)
	var evicted []string
	c.SetEvictObserver(func(k string) { evicted = append(evicted, k) })
	c.Do("a", func() int { return 1 })
	c.Do("b", func() int { return 2 })
	c.Do("c", func() int { return 3 }) // evicts a
	c.Do("d", func() int { return 4 }) // evicts b
	if len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "b" {
		t.Fatalf("evicted = %v, want [a b]", evicted)
	}
	c.SetEvictObserver(nil)
	c.Do("e", func() int { return 5 })
	if len(evicted) != 2 {
		t.Fatalf("observer fired after removal: %v", evicted)
	}
	if got := c.Stats().Evicted; got != 3 {
		t.Fatalf("Evicted = %d, want 3", got)
	}
}

// TestForget: Forget drops a completed entry, so the next request
// recomputes, and leaves an in-flight one alone; Contains sees both
// without counting.
func TestForget(t *testing.T) {
	c := New[string, int](0)
	if c.Forget("missing") {
		t.Fatal("Forget dropped a key that was never computed")
	}
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan int)
	go func() { done <- c.Do("slow", func() int { close(started); <-release; return 1 }) }()
	<-started
	if c.Forget("slow") {
		t.Fatal("Forget dropped an in-flight entry")
	}
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("in-flight compute delivered %d after Forget, want 1", v)
	}

	c.Do("k", func() int { return 42 })
	if before := c.Stats(); !c.Contains("k") || !c.Contains("slow") || c.Stats() != before {
		t.Fatal("Contains missed a resident key or counted a recall")
	}
	if !c.Forget("k") || c.Len() != 1 || c.Contains("k") {
		t.Fatalf("Forget of a completed entry: len %d, want 1 (only slow)", c.Len())
	}
	if v := c.Do("k", func() int { return 7 }); v != 7 {
		t.Fatalf("request after Forget recalled %d, want a recompute (7)", v)
	}
}
