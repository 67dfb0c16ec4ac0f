package experiments

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestOptionsWorkers(t *testing.T) {
	cases := []struct {
		jobs, want int
	}{
		{jobs: -1, want: 1}, // negative is a caller bug: clamp to serial
		{jobs: 0, want: runtime.GOMAXPROCS(0)},
		{jobs: 1, want: 1},
		{jobs: 3, want: 3},
		{jobs: 8, want: 8},
	}
	for _, c := range cases {
		if got := (Options{Jobs: c.jobs}).workers(); got != c.want {
			t.Errorf("Jobs=%d workers = %d, want %d", c.jobs, got, c.want)
		}
	}
}

// TestDeterminismAcrossJobs regenerates every registry artifact serially
// and on an 8-worker pool and requires identical tables: the scheduler
// must be invisible in the output. The pool's exact batches replay
// recorded private levels (streams.go) where the serial pass walks them
// directly, so this also checks the replay against the direct walk. Set LAP_DETERMINISM_SCALE=quick to run
// the comparison at the Quick() scale instead of the reduced test scale.
// Under -race the sweep narrows to a subset that still covers every
// scheduler path (see race_on_test.go).
func TestDeterminismAcrossJobs(t *testing.T) {
	opt := Options{Accesses: 20_000, Seed: 2016, RandomMixes: 2, DuelPeriod: 40_000}
	ids := Order()
	if raceEnabled {
		// Mix warm batches (table3/fig14) and threaded warm batches
		// (fig20) cover every scheduler path; the full registry would
		// take tens of minutes under the detector's slowdown.
		ids = []string{"table3", "fig14", "fig20"}
		opt.Accesses = 8_000
		opt.RandomMixes = 1
		t.Logf("race detector on: comparing subset %v at %d accesses", ids, opt.Accesses)
	}
	if os.Getenv("LAP_DETERMINISM_SCALE") == "quick" {
		opt = Quick()
		ids = Order()
	}

	generate := func(jobs int) map[string]*Table {
		ResetMemo()
		o := opt
		o.Jobs = jobs
		reg := Registry(o)
		out := make(map[string]*Table, len(reg))
		for _, id := range ids {
			out[id] = reg[id]()
		}
		return out
	}
	serial := generate(1)
	parallel := generate(8)
	for _, id := range ids {
		s, p := serial[id], parallel[id]
		if !reflect.DeepEqual(s.Header, p.Header) {
			t.Errorf("%s: headers differ between Jobs=1 and Jobs=8", id)
		}
		if !reflect.DeepEqual(s.Rows, p.Rows) {
			t.Errorf("%s: rows differ between Jobs=1 and Jobs=8\nserial:   %v\nparallel: %v",
				id, s.Rows, p.Rows)
		}
		if !reflect.DeepEqual(s.Notes, p.Notes) {
			t.Errorf("%s: notes differ between Jobs=1 and Jobs=8", id)
		}
	}
}

// TestSampledDeterminismAcrossJobs regenerates Fig. 14 and Ext. STT in
// sampled mode serially and on a 4-worker pool and requires identical
// rows: the warm pass is only a hint, so the order in which workers
// build, share and drop the per-mix profiles must not reach the output.
// reuse-detector and rd-copyback are exact-only, so Ext. STT's batch
// mixes held profile groups with groups of exact fallbacks.
func TestSampledDeterminismAcrossJobs(t *testing.T) {
	opt := Options{Accesses: 20_000, Seed: 2016, RandomMixes: 2, DuelPeriod: 40_000,
		SampleInterval: 1000, SampleWarmup: 1}
	if raceEnabled {
		opt.Accesses = 8_000
		opt.RandomMixes = 1
	}
	ids := []string{"fig14", "ext-stt"}
	generate := func(jobs int) map[string]*Table {
		ResetMemo()
		o := opt
		o.Jobs = jobs
		reg := Registry(o)
		out := make(map[string]*Table, len(ids))
		for _, id := range ids {
			out[id] = reg[id]()
		}
		return out
	}
	serial, parallel := generate(1), generate(4)
	for _, id := range ids {
		if !reflect.DeepEqual(serial[id].Rows, parallel[id].Rows) {
			t.Errorf("sampled %s rows differ between Jobs=1 and Jobs=4\nserial:   %v\nparallel: %v",
				id, serial[id].Rows, parallel[id].Rows)
		}
	}
}

// TestSingleflightSharesComputation races many goroutines on one fresh
// key and requires exactly one compute, with every caller observing its
// result.
func TestSingleflightSharesComputation(t *testing.T) {
	ResetMemo()
	key := memoKey{Policy: "singleflight-test", Seed: 42}
	var computes atomic.Int64
	var release = make(chan struct{})
	const callers = 32
	results := make([]sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = memo.Do(key, func() sim.Result {
				<-release // hold the latch so duplicates must wait
				computes.Add(1)
				return sim.Result{Policy: "only-once"}
			})
		}()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if r.Policy != "only-once" {
			t.Fatalf("caller %d observed %+v", i, r)
		}
	}
	if memo.Len() != 1 {
		t.Fatalf("memo size = %d, want 1", memo.Len())
	}
}

// TestMemoHammer drives duplicate keys and concurrent resets through the
// memo; it exists chiefly for go test -race, which verifies the memo's
// locking discipline end to end.
func TestMemoHammer(t *testing.T) {
	ResetMemo()
	const (
		goroutines = 16
		iterations = 200
		keys       = 7
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := memoKey{Policy: "hammer", Seed: uint64(i % keys)}
				want := fmt.Sprintf("hammer-%d", i%keys)
				res := memo.Do(k, func() sim.Result {
					return sim.Result{Policy: want}
				})
				if res.Policy != want {
					t.Errorf("key %d returned result for %q", i%keys, res.Policy)
					return
				}
				if i%50 == 0 && g == 0 {
					ResetMemo()
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoPanicDoesNotPoison ensures a panicking compute neither
// deadlocks waiters nor leaves a zero-value result cached.
func TestMemoPanicDoesNotPoison(t *testing.T) {
	ResetMemo()
	key := memoKey{Policy: "panic-test"}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic to propagate")
			}
		}()
		memo.Do(key, func() sim.Result { panic("boom") })
	}()
	if memo.Len() != 0 {
		t.Fatalf("poisoned entry survived: memo size = %d", memo.Len())
	}
	res := memo.Do(key, func() sim.Result { return sim.Result{Policy: "retry"} })
	if res.Policy != "retry" {
		t.Fatalf("retry after panic returned %+v", res)
	}
}

// TestWarmPopulatesMemo checks that a warmed batch leaves every run
// cached, so the collection pass is pure recall.
func TestWarmPopulatesMemo(t *testing.T) {
	ResetMemo()
	opt := Options{Accesses: 10_000, Seed: 9, RandomMixes: 1, DuelPeriod: 40_000, Jobs: 4}
	cfg := sim.DefaultConfig()
	mixes := workload.TableIII()[:2]
	warmMixRuns(cfg, opt, mixes, noniPol(), exPol())
	if got, want := memo.Len(), len(mixes)*2; got != want {
		t.Fatalf("memo size after warm = %d, want %d", got, want)
	}
	before := Stats()
	run(cfg, "noni", Noni(), mixes[0], opt)
	after := Stats()
	if after.Computed != before.Computed {
		t.Error("collection after warm recomputed a run")
	}
	if after.Recalled != before.Recalled+1 {
		t.Error("collection after warm did not count a recall")
	}
}

// TestWarmSerialIsNoop: with one worker the warm pass must not execute
// anything — Jobs=1 is the exact pre-scheduler serial path.
func TestWarmSerialIsNoop(t *testing.T) {
	ran := false
	warm(Options{Jobs: 1}, []func(){func() { ran = true }})
	if ran {
		t.Fatal("warm executed its batch with Jobs=1")
	}
}

// TestMemoKeyConfigFields walks sim.Config and rejects any field kind
// that would compare by identity (pointers) or not compile as a map key
// at all. The compiler already rejects non-comparable kinds because
// memoKey embeds Config by value; this test catches pointers, which
// compare but would split memo entries that are semantically equal.
func TestMemoKeyConfigFields(t *testing.T) {
	var check func(path string, tp reflect.Type)
	check = func(path string, tp reflect.Type) {
		switch tp.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s has kind %s: unusable as part of the memo key", path, tp.Kind())
		case reflect.Struct:
			for i := 0; i < tp.NumField(); i++ {
				f := tp.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", tp.Elem())
		}
	}
	check("sim.Config", reflect.TypeOf(sim.Config{}))
}
