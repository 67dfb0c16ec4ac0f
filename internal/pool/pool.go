// Package pool provides the bounded fan-out worker pool introduced with
// the PR 1 experiment scheduler, promoted so other subsystems (the
// lapserved sweep endpoint, lapsim's multi-policy runner) can fan batches
// of independent work onto a capped number of goroutines.
//
// Failure domain: a unit of work that panics is contained to its own
// slot. Run recovers panics into typed *RunError values carrying the
// unit's key and stack; Warm silently contains them (see Warm's
// contract). The process never dies because one simulation did.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
)

// Package-level instrumentation: the pool is stateless, so its counters
// are process-wide atomics (one add per task — noise-level next to a
// simulation). Register exposes them on an optional obs registry.
var (
	tasksTotal atomic.Uint64 // units executed by Run or a Warm pass
	taskErrors atomic.Uint64 // units that returned an error (injected faults included)
	taskPanics atomic.Uint64 // units whose panic was recovered
	// panicObserver, when set, receives every recovered panic (Run and
	// Warm passes alike) so contained failures can surface as events
	// instead of only as a counter tick.
	panicObserver atomic.Pointer[func(key string, v any)]
)

// SetPanicObserver installs (or, with nil, removes) a process-wide hook
// called with the unit key and panic value each time the pool contains
// a panic. The hook runs on the recovering goroutine and must not
// block or re-panic.
func SetPanicObserver(fn func(key string, v any)) {
	if fn == nil {
		panicObserver.Store(nil)
		return
	}
	panicObserver.Store(&fn)
}

func notifyPanic(key string, v any) {
	if fn := panicObserver.Load(); fn != nil {
		(*fn)(key, v)
	}
}

// Register exposes the pool's process-wide task counters on an optional
// obs registry under prefix (e.g. "lapsim_pool"). Nil registries no-op.
func Register(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"_tasks_total",
		"Work units executed by pool.Run and pool.Warm.", tasksTotal.Load)
	r.CounterFunc(prefix+"_task_errors_total",
		"Work units that returned an error.", taskErrors.Load)
	r.CounterFunc(prefix+"_task_panics_total",
		"Work units whose panic was recovered (process survived).", taskPanics.Load)
}

// Workers resolves an effective worker count from a jobs knob. The clamp
// is shared by every fan-out in the tree (the experiment scheduler,
// lapserved, lapsim), so negative/zero handling cannot drift between
// them: positive jobs are taken as-is, zero means one worker per
// schedulable CPU, and negative values — a caller bug with no sensible
// meaning — clamp to the serial path rather than silently behaving like
// the most parallel one.
func Workers(jobs int) int {
	if jobs > 0 {
		return jobs
	}
	if jobs < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// RunError is one work unit's recovered panic: the unit's key, the panic
// value, and the goroutine stack captured at recovery, so the failure
// stays debuggable after the process has survived it.
type RunError struct {
	// Key identifies the failed unit (run key, sweep cell label).
	Key string
	// Panic is the recovered panic value.
	Panic any
	// Stack is the failing goroutine's stack at recovery.
	Stack []byte
}

func (e *RunError) Error() string {
	return fmt.Sprintf("pool: run %q panicked: %v", e.Key, e.Panic)
}

// Recovered converts a recovered panic value into a *RunError. Callers
// that isolate panics themselves (memoised computes, request handlers)
// share this constructor so every failure domain produces the same typed
// value.
func Recovered(key string, v any) *RunError {
	return &RunError{Key: key, Panic: v, Stack: debug.Stack()}
}

// Task is one unit of work for Run.
type Task struct {
	// Key identifies the unit in failures.
	Key string
	// Ctx optionally carries a trace span; when set, the task's execution
	// is recorded as a "pool.task" child span. A nil Ctx (or one without a
	// span) costs nothing.
	Ctx context.Context
	// Do executes the unit.
	Do func() error
}

// Run executes every task — serially when workers <= 1 — and returns one
// error slot per task (nil on success). Unlike Warm, Run always executes
// the whole batch. A task that panics is recovered into a *RunError; the
// other tasks and the process are unaffected. The pool.task fault point
// can inject failures ahead of each task for chaos tests.
func Run(workers int, tasks []Task) []error {
	errs := make([]error, len(tasks))
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for i := range tasks {
			errs[i] = runTask(tasks[i])
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(tasks) {
					return
				}
				errs[j] = runTask(tasks[j])
			}
		}()
	}
	wg.Wait()
	return errs
}

// runTask executes one task with panic isolation.
func runTask(t Task) (err error) {
	tasksTotal.Add(1)
	var sp *otrace.Span
	if t.Ctx != nil {
		_, sp = otrace.Start(t.Ctx, "pool.task", otrace.Str("key", t.Key))
	}
	defer func() {
		if r := recover(); r != nil {
			taskPanics.Add(1)
			notifyPanic(t.Key, r)
			err = Recovered(t.Key, r)
		} else if err != nil {
			taskErrors.Add(1)
		}
		if sp != nil {
			sp.SetAttr(otrace.Bool("failed", err != nil))
			sp.End()
		}
	}()
	if err := fault.Inject(fault.PointPoolTask, t.Key); err != nil {
		return err
	}
	return t.Do()
}

// Warm executes the batch on up to workers goroutines and waits for all
// of them. With one worker (or fewer) it is a no-op: Warm's contract is
// that of a pure performance hint for a serial collection pass that
// follows — any unit of work the warm pass skips is simply computed on
// first use by the collector, so workers<=1 is exactly the serial path.
// Callers that need every thunk to run regardless of worker count must
// use Run instead.
//
// Each thunk runs panic-isolated: a panicking unit is contained here
// (its memo entry is dropped as poisoned, see internal/memo) and the
// failure surfaces on the serial collection pass, which re-executes the
// unit in the caller's goroutine — one corrupt run can no longer take a
// whole warm pass, or the process, down with it.
func Warm(workers int, batch []func()) {
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(batch) {
					return
				}
				func() {
					tasksTotal.Add(1)
					defer func() {
						if r := recover(); r != nil {
							taskPanics.Add(1)
							notifyPanic("warm", r)
						}
					}()
					batch[j]()
				}()
			}
		}()
	}
	wg.Wait()
}
