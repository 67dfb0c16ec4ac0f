package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestEngineDetailedMatchesRun: driving a machine entirely through
// RunDetailed windows must reproduce the one-shot Run result exactly —
// the Engine is a re-scheduling of the same loop, not a second
// implementation of it.
func TestEngineDetailedMatchesRun(t *testing.T) {
	cfg := smallCfg()
	const perCore = 20000

	want := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, perCore))

	eng := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), 2, perCore), nil)
	// One window covering the whole run: the engine's scheduler then
	// makes exactly the choices serialLoop makes. (Windowed schedules
	// barrier at quota boundaries, which legitimately shifts bank
	// contention timestamps; sampled runs accept that, exact equality
	// holds only for the single-window drive.)
	eng.RunDetailed(perCore)
	got := eng.Finalize(eng.Counters())

	if got.Met != want.Met {
		t.Fatalf("engine metrics differ from Run:\n got %+v\nwant %+v", got.Met, want.Met)
	}
	if got.EPI != want.EPI {
		t.Fatalf("engine EPI %.6f != Run EPI %.6f", got.EPI, want.EPI)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("engine cycles %d != Run cycles %d", got.Cycles, want.Cycles)
	}
}

// TestEngineFunctionalPreservesState: a run whose first half executes
// functionally must leave the caches in exactly the state a detailed
// run leaves them in — functional mode changes what is measured, never
// what happens to cache contents. We check by running the second half
// in detail and comparing its event deltas against the same window of
// an all-detailed engine.
func TestEngineFunctionalPreservesState(t *testing.T) {
	cfg := smallCfg()
	const half = 10000

	detail := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 2*half), nil)
	detail.RunDetailed(half)
	dBefore := detail.Counters()
	detail.RunDetailed(half)
	dAfter := detail.Counters()
	dAfter.Sub(&dBefore)

	mixed := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 2*half), nil)
	if n := mixed.RunFunctional(half); n != 2*half {
		t.Fatalf("functional half executed %d accesses, want %d", n, 2*half)
	}
	mBefore := mixed.Counters()
	mixed.RunDetailed(half)
	mAfter := mixed.Counters()
	mAfter.Sub(&mBefore)

	// Event counters of the detailed second half must be identical:
	// same cache state at the window boundary, same accesses, same
	// outcomes. (Cycles differ — the functional half never advanced the
	// clock, which shifts bank/DRAM timestamps — so compare events.)
	da, ma := dAfter.Met, mAfter.Met
	da.Cycles, ma.Cycles = 0, 0
	if da != ma {
		t.Fatalf("second-half deltas differ after functional first half:\n got %+v\nwant %+v", ma, da)
	}
}

// TestEngineFunctionalMetersNothing: functional windows must not
// accumulate energy-meter activity or bank operations.
func TestEngineFunctionalMetersNothing(t *testing.T) {
	cfg := smallCfg()
	eng := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 10000), nil)
	eng.RunFunctional(10000)
	c := eng.Counters()
	if c.TagAccesses != 0 {
		t.Fatalf("functional run metered %d tag accesses, want 0", c.TagAccesses)
	}
	for i := range c.RegionReads {
		if c.RegionReads[i] != 0 || c.RegionWrites[i] != 0 {
			t.Fatalf("functional run metered region %d reads=%d writes=%d, want 0", i, c.RegionReads[i], c.RegionWrites[i])
		}
	}
	for i, ops := range c.BankOps {
		if ops != 0 {
			t.Fatalf("functional run recorded %d ops on bank %d, want 0", ops, i)
		}
	}
	for i, cy := range c.Cycles {
		if cy != 0 {
			t.Fatalf("functional run advanced core %d clock to %g, want 0", i, cy)
		}
	}
	// But event counters must keep counting — signatures depend on them.
	if c.Met.L3Accesses == 0 || c.Met.L2Accesses == 0 {
		t.Fatalf("functional run recorded no cache events: %+v", c.Met)
	}
}

// TestEngineForkJumpReplaysSameAccesses: forking at a boundary and
// replaying from the fork must yield the same access stream the
// original sources continue with — the checkpoint mechanism behind
// interval jumps.
func TestEngineForkJumpReplaysSameAccesses(t *testing.T) {
	cfg := smallCfg()
	const win = 5000

	a := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 4*win), nil)
	a.RunFunctional(win)
	forks, ok := a.ForkSources()
	if !ok {
		t.Fatal("workload sources must be forkable")
	}
	a.RunFunctional(win)
	ca := a.Counters()

	// Second engine: same first window, then jump onto the forks —
	// must land on the identical stream positions.
	b := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 4*win), nil)
	b.RunFunctional(win)
	b.SetSources(forks)
	b.RunFunctional(win)
	cb := b.Counters()

	if ca.Met != cb.Met {
		t.Fatalf("fork replay diverged:\n got %+v\nwant %+v", cb.Met, ca.Met)
	}
}

// TestCountersSubAddScaledRoundTrip: extrapolating a delta with weight
// 1 must reproduce plain accumulation.
func TestCountersSubAddScaledRoundTrip(t *testing.T) {
	cfg := smallCfg()
	eng := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 20000), nil)

	var total Counters
	var snaps []Counters
	prev := eng.Counters()
	for !eng.Exhausted() {
		if eng.RunDetailed(4000) == 0 {
			break
		}
		cur := eng.Counters()
		snaps = append(snaps, cur)
		delta := cur.Clone()
		delta.Sub(&prev)
		total.AddScaled(&delta, 1)
		prev = cur
	}
	final := snaps[len(snaps)-1]
	if total.Met != final.Met || total.TagAccesses != final.TagAccesses {
		t.Fatalf("weight-1 extrapolation diverged from direct totals")
	}
	for i := range total.Cycles {
		if total.Cycles[i] != final.Cycles[i] || total.Instrs[i] != final.Instrs[i] {
			t.Fatalf("core %d progress diverged: %g/%d vs %g/%d",
				i, total.Cycles[i], total.Instrs[i], final.Cycles[i], final.Instrs[i])
		}
	}
}

// TestSnapshotStateFootprint bounds what one cache-hierarchy snapshot
// costs at the paper's geometry. Sampled simulation keeps up to 16 per
// profile and one profile per mix live, so the snapshot size sets the
// sampled runs' peak memory. Each line's state is stored once (8-byte
// tag, 4-byte Meta, one recency byte and a valid bit: ~13 bytes), so the
// 165,888 lines of DefaultConfig need about 2.1 MiB.
func TestSnapshotStateFootprint(t *testing.T) {
	cfg := DefaultConfig()
	eng := NewEngine(cfg, core.NewLAP(), sourcesFor(loopy(), cfg.Cores, 1000), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := eng.SnapshotState(nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	const limit = 23 << 20 / 10 // 2.3 MiB
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("SnapshotState(nil) allocated %.2f MiB at DefaultConfig, want ≤ 2.3 MiB", float64(got)/(1<<20))
	}
}
