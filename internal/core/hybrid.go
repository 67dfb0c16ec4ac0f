package core

import "repro/internal/cache"

// Hybrid SRAM/STT-RAM LLC placement (paper Section IV, Fig. 11). The LLC
// keeps its LAP inclusion flow; placement within a set decides which
// technology region absorbs each write:
//
//   - Winv: a dirty L2 victim that hits a duplicate in the STT-RAM region
//     invalidates it and lands in SRAM instead (Fig. 11a).
//   - LoopSTT: loop-blocks belong in STT-RAM, where they will not be
//     rewritten (Fig. 11b).
//   - NloopSRAM: write-prone non-loop-blocks belong in SRAM (Fig. 11c).
//
// Lhybrid composes all three with the full Fig. 11 migration flow: every
// insertion enters SRAM; when SRAM overflows, the MRU loop-block migrates
// to STT-RAM, otherwise the SRAM LRU block is evicted.
type Hybrid struct {
	lap  *LAP
	winv bool
	// loopSTT / nloopSRAM steer insertions by loop-bit (ablation stages).
	loopSTT   bool
	nloopSRAM bool
	// full enables the complete Lhybrid insertion/migration flow.
	full bool
}

// NewLhybrid returns the full Lhybrid policy of Section IV.
func NewLhybrid() *Hybrid {
	return &Hybrid{lap: NewLAP(), winv: true, loopSTT: true, nloopSRAM: true, full: true}
}

// NewHybridStage returns one of the Fig. 25 ablation stages layered on
// plain LAP: winv, loopSTT, or nloopSRAM.
func NewHybridStage(winv, loopSTT, nloopSRAM bool) *Hybrid {
	return &Hybrid{lap: NewLAP(), winv: winv, loopSTT: loopSTT, nloopSRAM: nloopSRAM}
}

// Name implements Controller.
func (c *Hybrid) Name() string {
	if c.full {
		return "Lhybrid"
	}
	switch {
	case c.winv:
		return "LAP+Winv"
	case c.loopSTT:
		return "LAP+LoopSTT"
	case c.nloopSRAM:
		return "LAP+NloopSRAM"
	default:
		return "LAP(hybrid)"
	}
}

// Fetch implements Controller: identical to LAP (no fill on miss, no
// invalidation on hit, loop-bit set on hit).
func (c *Hybrid) Fetch(x *Ctx, block uint64) FetchResult { return c.lap.Fetch(x, block) }

// Duel exposes the underlying LAP replacement duel.
func (c *Hybrid) Duel() *cache.Duel { return c.lap.Duel() }

// EvictL2 implements Controller with technology-aware placement.
func (c *Hybrid) EvictL2(x *Ctx, v cache.Line) {
	x.tagAccess()
	set := x.L3.SetOf(v.Tag)
	sram := x.L3.SRAMWays()
	if w := x.L3.Probe(v.Tag); w >= 0 {
		l := x.L3.Meta(set, w)
		if v.Dirty {
			if c.winv && !x.L3.IsSRAMWay(w) {
				// Fig. 11a: invalidate the STT-RAM copy and write the
				// dirty block into SRAM instead.
				x.L3.Evict(set, w)
				if x.Prof != nil {
					x.Prof.OnL3Evict(v.Tag)
				}
				c.place(x, v.Tag, true, v.Loop, SrcDirty)
				return
			}
			l.SetDirty(true)
			l.SetLoop(v.Loop)
			x.L3.Touch(set, w)
			x.dataWrite(set, w)
			x.Met.AddWrite(SrcDirty)
			return
		}
		// Clean victim with a duplicate: tag-only loop-bit refresh (LAP).
		l.SetLoop(v.Loop)
		x.L3.Touch(set, w)
		x.tagAccess()
		x.Met.TagOnlyUpdates++
		return
	}
	src := SrcClean
	if v.Dirty {
		src = SrcDirty
	}
	if sram == 0 {
		// Not actually a hybrid cache; degrade to LAP insertion.
		x.insert(v.Tag, v.Dirty, v.Loop, src, c.lap.victimSelector(x))
		return
	}
	c.place(x, v.Tag, v.Dirty, v.Loop, src)
}

// place inserts a block with technology-aware placement.
func (c *Hybrid) place(x *Ctx, block uint64, dirty, loop bool, src WriteSource) {
	sram := x.L3.SRAMWays()
	ways := x.L3.Ways()
	if c.full {
		c.placeFull(x, block, dirty, loop, src)
		return
	}
	// Ablation stages: steer the victim region by loop-bit, otherwise
	// fall back to LAP's whole-set selection.
	selector := c.lap.victimSelector(x)
	switch {
	case c.loopSTT && loop:
		selector = func(s int) int { return x.L3.LoopVictimInRange(s, sram, ways) }
	case c.nloopSRAM && !loop:
		selector = func(s int) int { return x.L3.VictimInRange(s, 0, sram) }
	case c.winv && dirty:
		selector = func(s int) int { return x.L3.VictimInRange(s, 0, sram) }
	}
	x.insert(block, dirty, loop, src, selector)
}

// placeFull implements the complete Fig. 11 flow: insert into SRAM; on
// SRAM pressure migrate the MRU loop-block to STT-RAM (evicting an STT
// non-loop-block first), else evict the SRAM LRU block.
func (c *Hybrid) placeFull(x *Ctx, block uint64, dirty, loop bool, src WriteSource) {
	set := x.L3.SetOf(block)
	sram := x.L3.SRAMWays()
	ways := x.L3.Ways()

	if w := x.L3.InvalidWayIn(set, 0, sram); w >= 0 {
		c.installAt(x, set, w, block, dirty, loop, src)
		return
	}
	mruLoop := x.L3.MRUWhere(set, 0, sram, func(m *cache.Meta) bool { return m.Loop() })
	switch {
	case mruLoop >= 0:
		// Fig. 11b: migrate the MRU loop-block to STT-RAM, then reuse its
		// SRAM way for the incoming block.
		c.migrate(x, set, mruLoop, sram, ways)
		c.installAt(x, set, mruLoop, block, dirty, loop, src)
	case loop:
		// The incoming block is itself the only loop-block: it belongs in
		// STT-RAM directly.
		w := c.sttVictim(x, set, sram, ways)
		c.installAt(x, set, w, block, dirty, loop, src)
	default:
		// Fig. 11c: no loop-blocks anywhere — evict the SRAM LRU block.
		w := x.L3.VictimInRange(set, 0, sram)
		c.installAt(x, set, w, block, dirty, loop, src)
	}
}

// sttVictim frees and returns a way in the STT-RAM region: an invalid way
// if present, else the loop-aware victim (LRU non-loop-block first).
func (c *Hybrid) sttVictim(x *Ctx, set, sram, ways int) int {
	if w := x.L3.InvalidWayIn(set, sram, ways); w >= 0 {
		return w
	}
	return x.L3.LoopVictimInRange(set, sram, ways)
}

// migrate moves the line at (set, from) in SRAM into the STT-RAM region.
func (c *Hybrid) migrate(x *Ctx, set, from, sram, ways int) {
	to := c.sttVictim(x, set, sram, ways)
	x.evictVictim(set, to)
	src, ok := x.L3.Evict(set, from)
	if !ok {
		return
	}
	// Reading the block out of SRAM and writing it into STT-RAM.
	x.E.AddRead(x.regionOf(from))
	x.L3.InsertAt(set, to, src.Tag, src.Dirty, src.Loop)
	x.dataWrite(set, to)
	x.Met.MigrationWrites++
}

// installAt writes the incoming block into a specific way, evicting any
// occupant first.
func (c *Hybrid) installAt(x *Ctx, set, way int, block uint64, dirty, loop bool, src WriteSource) {
	x.evictVictim(set, way)
	x.L3.InsertAt(set, way, block, dirty, loop)
	x.dataWrite(set, way)
	x.Met.AddWrite(src)
	if x.Prof != nil {
		switch src {
		case SrcFill:
			x.Prof.OnFill(block)
		case SrcClean:
			x.Prof.OnCleanInsert(block)
		}
	}
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name:            "Lhybrid",
		Description:     "LAP plus loop-block-aware SRAM/STT-RAM data placement",
		NeedsHybridLLC:  true,
		SampledEligible: true,
		Rank:            9,
		New:             func(PolicyParams) Controller { return NewLhybrid() },
	})
}
