package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallCfg shrinks the hierarchy so tests exercise capacity effects with
// short streams: 4KB L1, 16KB L2, 64KB L3.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.L1SizeBytes = 4 << 10
	cfg.L2SizeBytes = 16 << 10
	cfg.L3SizeBytes = 64 << 10
	return cfg
}

// loopy is a workload whose read set fits the L3 but not the L2 (two
// cores of it together use ~60% of the small L3), with enough RMW traffic
// to keep insertion pressure on the LLC.
func loopy() workload.Benchmark {
	return workload.Benchmark{
		Name: "loopy", InstrPerAccess: 2,
		Regions: []workload.Region{
			{Kind: workload.Loop, Blocks: 300, Weight: 0.6},
			{Kind: workload.Hot, Blocks: 16, Weight: 0.2, WriteFrac: 0.3},
			{Kind: workload.RMW, Blocks: 128, Weight: 0.2, WriteFrac: 0.8},
		},
	}
}

// writy is a streaming read-modify-write workload (libquantum-like).
func writy() workload.Benchmark {
	return workload.Benchmark{
		Name: "writy", InstrPerAccess: 2,
		Regions: []workload.Region{
			{Kind: workload.StreamRMW, Weight: 0.8},
			{Kind: workload.Hot, Blocks: 16, Weight: 0.2, WriteFrac: 0.2},
		},
	}
}

func sourcesFor(b workload.Benchmark, cores int, n uint64) []trace.Source {
	srcs := make([]trace.Source, cores)
	for i := 0; i < cores; i++ {
		srcs[i] = trace.Limit(trace.WithOffset(workload.New(b, uint64(i+3)), uint64(i+1)<<coreSpaceShift), n)
	}
	return srcs
}

func TestRunPanicsOnSourceMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(smallCfg(), core.NewLAP(), nil)
}

func TestDeterministic(t *testing.T) {
	cfg := smallCfg()
	a := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 20000))
	b := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 20000))
	if a.Met != b.Met || a.Cycles != b.Cycles {
		t.Fatal("simulation not deterministic")
	}
}

func TestWriteSourceIdentities(t *testing.T) {
	cfg := smallCfg()
	// Non-inclusive: writes = fills + dirty victims; no clean insertions.
	rn := Run(cfg, core.NewNonInclusive(), sourcesFor(loopy(), 2, 30000))
	if rn.Met.WritesClean != 0 {
		t.Fatalf("non-inclusive inserted %d clean victims", rn.Met.WritesClean)
	}
	if rn.Met.WritesFill == 0 || rn.Met.WritesDirty == 0 {
		t.Fatalf("non-inclusive write decomposition empty: %+v", rn.Met)
	}
	// Exclusive: no data-fills.
	re := Run(cfg, core.NewExclusive(), sourcesFor(loopy(), 2, 30000))
	if re.Met.WritesFill != 0 {
		t.Fatalf("exclusive performed %d fills", re.Met.WritesFill)
	}
	if re.Met.WritesClean == 0 {
		t.Fatal("exclusive inserted no clean victims")
	}
	// LAP: no data-fills either.
	rl := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 30000))
	if rl.Met.WritesFill != 0 {
		t.Fatalf("LAP performed %d fills", rl.Met.WritesFill)
	}
}

func TestEvictionConservation(t *testing.T) {
	r := Run(smallCfg(), core.NewLAP(), sourcesFor(loopy(), 2, 30000))
	if r.Met.L2Evictions != r.Met.L2CleanEvictions+r.Met.L2DirtyEvictions {
		t.Fatal("L2 eviction decomposition does not add up")
	}
	if r.Met.L3Hits+r.Met.L3Misses != r.Met.L3Accesses {
		t.Fatal("L3 hit/miss decomposition does not add up")
	}
}

func TestLAPReducesWritesOnLoopWorkload(t *testing.T) {
	cfg := smallCfg()
	noni := Run(cfg, core.NewNonInclusive(), sourcesFor(loopy(), 2, 50000))
	ex := Run(cfg, core.NewExclusive(), sourcesFor(loopy(), 2, 50000))
	lap := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 50000))
	if lap.Met.WritesToLLC() >= ex.Met.WritesToLLC() {
		t.Fatalf("LAP writes %d >= exclusive %d on loop workload",
			lap.Met.WritesToLLC(), ex.Met.WritesToLLC())
	}
	if lap.Met.WritesToLLC() >= noni.Met.WritesToLLC() {
		t.Fatalf("LAP writes %d >= non-inclusive %d on loop workload",
			lap.Met.WritesToLLC(), noni.Met.WritesToLLC())
	}
}

func TestExclusionSavesWritesOnStreamRMW(t *testing.T) {
	// Fig. 2: libquantum-like workloads favour exclusion because
	// non-inclusive fills are redundant (block is dirtied before reuse).
	cfg := smallCfg()
	noni := Run(cfg, core.NewNonInclusive(), sourcesFor(writy(), 2, 50000))
	ex := Run(cfg, core.NewExclusive(), sourcesFor(writy(), 2, 50000))
	if float64(ex.Met.WritesToLLC()) > 0.8*float64(noni.Met.WritesToLLC()) {
		t.Fatalf("exclusive writes %d not clearly below non-inclusive %d on StreamRMW",
			ex.Met.WritesToLLC(), noni.Met.WritesToLLC())
	}
}

func TestExclusiveEffectiveCapacity(t *testing.T) {
	// With a working set around L2+L3, exclusion must miss less than
	// non-inclusion (Fig. 18 direction).
	cfg := smallCfg()
	b := workload.Benchmark{
		Name: "cap", InstrPerAccess: 2,
		Regions: []workload.Region{{Kind: workload.Loop, Blocks: 600, Weight: 1}},
	}
	noni := Run(cfg, core.NewNonInclusive(), sourcesFor(b, 2, 60000))
	ex := Run(cfg, core.NewExclusive(), sourcesFor(b, 2, 60000))
	if ex.Met.L3Misses >= noni.Met.L3Misses {
		t.Fatalf("exclusive misses %d >= non-inclusive %d", ex.Met.L3Misses, noni.Met.L3Misses)
	}
}

func TestProfilerEnabled(t *testing.T) {
	cfg := smallCfg()
	cfg.Profile = true
	r := Run(cfg, core.NewNonInclusive(), sourcesFor(writy(), 2, 40000))
	if r.Prof == nil {
		t.Fatal("profiler missing")
	}
	if f := r.Prof.RedundantFillFrac(); f < 0.5 {
		t.Fatalf("StreamRMW redundant-fill fraction = %.2f, want high", f)
	}
	rl := Run(cfg, core.NewNonInclusive(), sourcesFor(loopy(), 2, 40000))
	if lf := rl.Prof.LoopBlockFrac(); lf < 0.3 {
		t.Fatalf("loopy loop-block fraction = %.2f, want substantial", lf)
	}
}

func TestHybridRun(t *testing.T) {
	cfg := smallCfg().WithHybridL3()
	r := Run(cfg, core.NewLhybrid(), sourcesFor(loopy(), 2, 40000))
	if r.Met.WritesToLLC() == 0 {
		t.Fatal("hybrid run produced no LLC writes")
	}
	// Both regions must be exercised on a loop-heavy workload.
	lh := Run(cfg, core.NewLhybrid(), sourcesFor(loopy(), 2, 40000))
	if lh.Met.MigrationWrites == 0 {
		t.Fatal("Lhybrid never migrated a loop-block to STT-RAM")
	}
}

func TestCoherentRun(t *testing.T) {
	cfg := smallCfg()
	cfg.Coherent = true
	b := workload.Benchmark{
		Name: "shared", InstrPerAccess: 2, Threaded: true,
		Regions: []workload.Region{
			{Kind: workload.RMW, Blocks: 256, Weight: 0.5, WriteFrac: 0.5, Shared: true},
			{Kind: workload.Loop, Blocks: 512, Weight: 0.5, Shared: true},
		},
	}
	srcs := ThreadSources(b, cfg.Cores, 30000, 9)
	r := Run(cfg, core.NewNonInclusive(), srcs)
	if r.Snoop.Probes == 0 {
		t.Fatal("coherent run produced no snoop probes")
	}
	if r.Snoop.DirtyTransfers == 0 {
		t.Fatal("no cache-to-cache dirty transfers on shared RMW data")
	}
	if r.Met.SnoopTraffic == 0 {
		t.Fatal("snoop traffic not recorded")
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	cfg := smallCfg()
	r := Run(cfg, core.NewInclusive(), sourcesFor(writy(), 2, 40000))
	if r.Met.BackInvalidations == 0 {
		t.Fatal("inclusive run performed no back-invalidations")
	}
}

// TestInclusiveStrictUnderWrappers requires every LLC eviction of an
// inclusive run to back-invalidate the private levels, also when a
// wrapper (dead-write bypass) sits around the inclusive controller.
func TestInclusiveStrictUnderWrappers(t *testing.T) {
	cfg := smallCfg()
	for _, ctrl := range []core.Controller{
		core.NewInclusive(),
		core.NewDeadWriteBypass(core.NewInclusive()),
	} {
		r := Run(cfg, ctrl, sourcesFor(writy(), 2, 40000))
		if r.Met.L3Evictions == 0 || r.Met.BackInvalidations != r.Met.L3Evictions {
			t.Errorf("%s: %d back-invalidations for %d LLC evictions, want one each",
				ctrl.Name(), r.Met.BackInvalidations, r.Met.L3Evictions)
		}
	}
}

func TestThroughputPositive(t *testing.T) {
	r := Run(smallCfg(), core.NewLAP(), sourcesFor(loopy(), 2, 20000))
	if r.Throughput <= 0 || len(r.IPCs) != 2 {
		t.Fatalf("throughput %v, IPCs %v", r.Throughput, r.IPCs)
	}
	for _, ipc := range r.IPCs {
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("implausible IPC %v", ipc)
		}
	}
	if r.EPI.Total() <= 0 {
		t.Fatal("EPI must be positive")
	}
}

func TestSTTWritePressureSlowsExclusive(t *testing.T) {
	// The bank model must make write-heavy exclusive traffic cost cycles:
	// with a much slower write, runtime should not improve.
	cfg := smallCfg()
	fast := cfg
	fast.L3WriteCycles = 8
	slow := cfg
	slow.L3WriteCycles = 66
	rf := Run(fast, core.NewExclusive(), sourcesFor(loopy(), 2, 40000))
	rs := Run(slow, core.NewExclusive(), sourcesFor(loopy(), 2, 40000))
	if rs.Cycles <= rf.Cycles {
		t.Fatalf("slow writes did not cost cycles: %d vs %d", rs.Cycles, rf.Cycles)
	}
}

func TestMixSources(t *testing.T) {
	mix := workload.TableIII()[0]
	srcs, err := MixSources(mix, 100, 1)
	if err != nil || len(srcs) != 4 {
		t.Fatalf("MixSources: %v, n=%d", err, len(srcs))
	}
	if _, err := MixSources(workload.Mix{Name: "bad", Members: []string{"nope"}}, 10, 1); err == nil {
		t.Fatal("bad mix did not error")
	}
	// Disjoint core address spaces.
	a0 := trace.Drain(srcs[0])
	a1 := trace.Drain(srcs[1])
	addrs := map[uint64]bool{}
	for _, a := range a0 {
		addrs[a.Addr] = true
	}
	for _, a := range a1 {
		if addrs[a.Addr] {
			t.Fatal("core address spaces overlap in a mix")
		}
	}
}

func TestRunMixAndRunThreaded(t *testing.T) {
	cfg := smallCfg()
	cfg.Cores = 4
	res, err := RunMix(cfg, func() core.Controller { return core.NewLAP() },
		workload.TableIII()[5], 5000, 1)
	if err != nil || res.Met.Instructions == 0 {
		t.Fatalf("RunMix: %v", err)
	}
	b, _ := workload.ByName("streamcluster")
	rt := RunThreaded(cfg, func() core.Controller { return core.NewExclusive() }, b, 5000, 1)
	if rt.Snoop.Probes == 0 {
		t.Fatal("RunThreaded did not enable coherence")
	}
	if _, err := RunMix(cfg, func() core.Controller { return core.NewLAP() },
		workload.Mix{Name: "w", Members: []string{"mcf"}}, 10, 1); err == nil {
		t.Fatal("mix/core mismatch not detected")
	}
}

func TestConfigVariants(t *testing.T) {
	c := DefaultConfig()
	if c.WithSRAML3().L3Tech.Name != "SRAM" {
		t.Fatal("WithSRAML3 wrong tech")
	}
	scaled := energy.STTRAM().WithWriteReadRatio(4)
	if c.WithSTTL3(scaled).L3Tech.WriteReadRatio() != 4 {
		t.Fatal("WithSTTL3 did not take scaled tech")
	}
	h := c.WithHybridL3()
	if !h.hybrid() || h.L3SRAMWays != 4 {
		t.Fatal("WithHybridL3 wrong")
	}
}
