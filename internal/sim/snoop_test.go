package sim

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/workload"
)

// sharing is a threaded benchmark whose small shared regions make the
// threads' windows overlap within a short run.
func sharing() workload.Benchmark {
	return workload.Benchmark{
		Name: "sharing", InstrPerAccess: 2, Threaded: true,
		Regions: []workload.Region{
			{Kind: workload.Loop, Blocks: 512, Weight: 0.5, Shared: true},
			{Kind: workload.RMW, Blocks: 256, Weight: 0.3, WriteFrac: 0.6, Shared: true},
			{Kind: workload.Hot, Blocks: 64, Weight: 0.2, WriteFrac: 0.3},
		},
	}
}

// victimTap forwards to a controller and notes each L2 victim of the
// stepping core, with whether that core's L1 still held the victim at
// the eviction. Base lets the machine see through it, so an inclusive
// controller still back-invalidates.
type victimTap struct {
	core.Controller
	cur     *coreState
	victims []tappedVictim
}

type tappedVictim struct {
	block uint64
	inL1  bool
}

func (t *victimTap) EvictL2(x *core.Ctx, v cache.Line) {
	t.victims = append(t.victims, tappedVictim{v.Tag, t.cur.l1.Probe(v.Tag) >= 0})
	t.Controller.EvictL2(x, v)
}

func (t *victimTap) Base() core.Controller { return t.Controller }

// holds reports whether core c's L1 or L2 holds block, and whether
// either copy is dirty.
func holds(c *coreState, block uint64) (found, dirty bool) {
	for _, l := range [2]*cache.Cache{c.l1, c.l2} {
		if w := l.Probe(block); w >= 0 {
			found = true
			dirty = dirty || l.Meta(l.SetOf(block), w).Dirty()
		}
	}
	return found, dirty
}

// snoopDiff runs b's threads on cfg's coherent machine under ctrl, in
// the serial loop's order (lowest clock first, lowest index on ties),
// and drives a MOESI directory beside it: a Read or Write per access,
// a Read for each block the access prefetched, and an Evict for each L2
// victim that the core's L1 no longer holds. After each access, for the
// accessed block, each prefetched block and each L2 victim, every core
// that holds the block in its L1 or L2 must be valid in the directory,
// and at most one core may hold it dirty. The converse of
// the first rule need not hold: a clean L1 victim that the L2 lacks
// leaves silently. snoopDiff returns the violations, then the first
// broken invariant of the directory itself, if any, and the directory.
func snoopDiff(cfg Config, ctrl core.Controller, b workload.Benchmark, accesses uint64) ([]string, *coherence.Directory) {
	tap := &victimTap{Controller: ctrl}
	m := build(cfg, tap, ThreadSources(b, cfg.Cores, accesses, 5))
	dir := coherence.NewDirectory(cfg.Cores)
	var bad []string
	check := func(block uint64) {
		dirty := 0
		for _, c := range m.cores {
			found, d := holds(c, block)
			if found && dir.State(c.id, block) == coherence.Invalid {
				bad = append(bad, fmt.Sprintf("core %d holds block %#x, which the directory has Invalid", c.id, block))
			}
			if d {
				dirty++
			}
		}
		if dirty > 1 {
			bad = append(bad, fmt.Sprintf("%d cores hold block %#x dirty", dirty, block))
		}
	}
	for {
		var next *coreState
		for _, c := range m.cores {
			if !c.done && (next == nil || c.cycles < next.cycles) {
				next = c
			}
		}
		if next == nil {
			break
		}
		acc, ok := next.next()
		if !ok {
			next.done = true
			continue
		}
		block := acc.Addr / uint64(cfg.BlockBytes)
		// The step prefetched the next-line blocks it did not hold before
		// and holds after.
		var prefetched []uint64
		for d := 1; d <= cfg.PrefetchDegree; d++ {
			if found, _ := holds(next, block+uint64(d)); !found {
				prefetched = append(prefetched, block+uint64(d))
			}
		}
		tap.cur, tap.victims = next, tap.victims[:0]
		m.step(next, acc)
		for _, v := range tap.victims {
			if !v.inL1 {
				dir.Evict(next.id, v.block)
			}
		}
		if acc.Write {
			dir.Write(next.id, block)
		} else {
			dir.Read(next.id, block)
		}
		check(block)
		for _, pb := range prefetched {
			if found, _ := holds(next, pb); found {
				dir.Read(next.id, pb)
				check(pb)
			}
		}
		for _, v := range tap.victims {
			check(v.block)
		}
	}
	if msg := dir.CheckInvariants(); msg != "" {
		bad = append(bad, msg)
	}
	return bad, dir
}

// TestSnoopBusAgreesWithMOESIDirectory holds the message-level snoop
// bus (Fig. 20c) to the full MOESI directory (snoopDiff) on every PARSEC
// surrogate and a benchmark built to share, under three inclusion
// properties, without a prefetcher and (the "/prefetch2" subtests) with
// a next-line prefetch of degree 2.
func TestSnoopBusAgreesWithMOESIDirectory(t *testing.T) {
	benches := append(workload.PARSEC(), sharing())
	ctrls := map[string]func() core.Controller{
		"non-inclusive": func() core.Controller { return core.NewNonInclusive() },
		"LAP":           func() core.Controller { return core.NewLAP() },
		"inclusive":     func() core.Controller { return core.NewInclusive() },
	}
	for _, degree := range []int{0, 2} {
		cfg := smallCfg()
		cfg.Coherent = true
		cfg.PrefetchDegree = degree
		suffix := ""
		if degree > 0 {
			suffix = fmt.Sprintf("/prefetch%d", degree)
		}
		for name, mk := range ctrls {
			for _, b := range benches {
				t.Run(name+"/"+b.Name+suffix, func(t *testing.T) {
					t.Parallel()
					bad, dir := snoopDiff(cfg, mk(), b, 20_000)
					if len(bad) > 0 {
						t.Fatalf("%d violations; first: %s", len(bad), bad[0])
					}
					if b.Name != "sharing" {
						return
					}
					if dir.Stats.Reads == 0 || dir.Stats.Writes == 0 {
						t.Fatalf("directory saw no traffic: %+v", dir.Stats)
					}
					occ := dir.Occupancy()
					if occ[coherence.Shared] == 0 {
						t.Fatalf("no Shared-state lines on a shared workload: %v", occ)
					}
					if occ[coherence.Modified]+occ[coherence.Owned] == 0 {
						t.Fatalf("no dirty coherence states: %v", occ)
					}
					if dir.Stats.CacheSupplies == 0 {
						t.Fatal("no cache-to-cache supplies on shared data")
					}
				})
			}
		}
	}
}
