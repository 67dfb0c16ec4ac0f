package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestPrefetcherOffByDefault(t *testing.T) {
	r := Run(smallCfg(), core.NewNonInclusive(), sourcesFor(writy(), 2, 10000))
	if r.Met.Prefetches != 0 {
		t.Fatal("prefetches issued without PrefetchDegree")
	}
}

func TestPrefetcherHelpsStreams(t *testing.T) {
	base := smallCfg()
	pf := base
	pf.PrefetchDegree = 2
	off := Run(base, core.NewNonInclusive(), sourcesFor(writy(), 2, 40000))
	on := Run(pf, core.NewNonInclusive(), sourcesFor(writy(), 2, 40000))
	if on.Met.Prefetches == 0 {
		t.Fatal("prefetcher idle on a streaming workload")
	}
	// Streaming accesses now hit in the L2 that the prefetcher warmed.
	offMissRate := float64(off.Met.L2Misses) / float64(off.Met.L2Accesses)
	onMissRate := float64(on.Met.L2Misses) / float64(on.Met.L2Accesses)
	if onMissRate >= offMissRate {
		t.Fatalf("L2 demand miss rate did not improve: %.3f -> %.3f", offMissRate, onMissRate)
	}
	if on.Cycles >= off.Cycles {
		t.Fatalf("prefetching did not shorten the run: %d -> %d cycles", off.Cycles, on.Cycles)
	}
}

func TestPrefetchTrafficSeesPolicyCosts(t *testing.T) {
	// Under non-inclusion, prefetch fetches that miss the LLC fill it,
	// so prefetching must increase LLC write (fill) traffic.
	base := smallCfg()
	pf := base
	pf.PrefetchDegree = 2
	off := Run(base, core.NewNonInclusive(), sourcesFor(writy(), 2, 30000))
	on := Run(pf, core.NewNonInclusive(), sourcesFor(writy(), 2, 30000))
	if on.Met.WritesFill <= off.Met.WritesFill {
		t.Fatal("prefetch fills invisible to the inclusion controller")
	}
	// Under LAP, prefetches must not create fills either.
	lapOn := Run(pf, core.NewLAP(), sourcesFor(writy(), 2, 30000))
	if lapOn.Met.WritesFill != 0 {
		t.Fatal("LAP filled the LLC on prefetches")
	}
}

// TestPrefetcherStopsAtLastBlock touches the last block of the address
// space with PrefetchDegree 2. The next-line prefetcher must stop there:
// a block past it does not fit a cache line's block field and would
// alias block 0.
func TestPrefetcherStopsAtLastBlock(t *testing.T) {
	cfg := smallCfg()
	cfg.PrefetchDegree = 2
	last := uint64(math.MaxUint64) / uint64(cfg.BlockBytes)
	for _, ctrl := range []core.Controller{core.NewNonInclusive(), core.NewLAP()} {
		m := build(cfg, ctrl, sourcesFor(writy(), cfg.Cores, 0))
		c := m.cores[0]
		m.step(c, trace.Access{Addr: math.MaxUint64, Instrs: 1})
		if c.l2.Probe(last) < 0 {
			t.Fatalf("%s: the last block was not filled into the L2", ctrl.Name())
		}
		if c.l2.Probe(0) >= 0 || m.ctx.L3.Probe(0) >= 0 {
			t.Fatalf("%s: prefetching past the last block installed block 0", ctrl.Name())
		}
		if m.ctx.Met.Prefetches != 0 {
			t.Fatalf("%s: %d prefetches issued past the last block", ctrl.Name(), m.ctx.Met.Prefetches)
		}
	}
}
