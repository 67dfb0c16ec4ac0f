package core

import (
	"repro/internal/cache"
)

// ReplacementMode selects how LAP chooses LLC replacement victims.
type ReplacementMode int

// Replacement modes for LAP (paper Section III-B and Fig. 19):
// DuelingReplacement is the full design (set-dueling between loop-aware
// and LRU); AlwaysLRU and AlwaysLoopAware are the LAP-LRU and LAP-Loop
// ablation variants.
const (
	DuelingReplacement ReplacementMode = iota
	AlwaysLRU
	AlwaysLoopAware
)

// LAP implements the paper's Loop-block-Aware Policy (Section III):
//
//   - L3 misses fill only the upper levels, eliminating redundant
//     data-fills (exclusive-style fetch).
//   - L3 hits do not invalidate the LLC copy, eliminating redundant
//     clean-data re-insertions (non-inclusive-style hit), and set the
//     loop-bit of the L2 copy (Fig. 10c).
//   - Clean L2 victims with an LLC duplicate are dropped with a tag-only
//     loop-bit refresh; those without a duplicate are inserted. Dirty
//     victims are written as usual.
//   - Replacement prefers evicting non-loop-blocks, guarded by
//     set-dueling against plain LRU (Fig. 9).
type LAP struct {
	mode ReplacementMode
	duel *cache.Duel
}

// NewLAP returns the full LAP controller with set-dueling replacement
// using the paper's parameters (1/64 leader sets, 10M-cycle windows).
func NewLAP() *LAP { return NewLAPVariant(DuelingReplacement) }

// NewLAPVariant returns a LAP controller with the given replacement mode.
func NewLAPVariant(mode ReplacementMode) *LAP {
	return &LAP{mode: mode, duel: cache.NewDuel()}
}

// Name implements Controller.
func (c *LAP) Name() string {
	switch c.mode {
	case AlwaysLRU:
		return "LAP-LRU"
	case AlwaysLoopAware:
		return "LAP-Loop"
	default:
		return "LAP"
	}
}

// Duel exposes the set-dueling state for tests and stats.
func (c *LAP) Duel() *cache.Duel { return c.duel }

// victimSelector returns the victim-choice function for a set, honouring
// the replacement mode and, under dueling, the set's current policy.
func (c *LAP) victimSelector(x *Ctx) func(set int) int {
	return func(set int) int {
		loopAware := false
		switch c.mode {
		case AlwaysLoopAware:
			loopAware = true
		case DuelingReplacement:
			loopAware = c.duel.PolicyOf(set) == cache.LeaderA
		}
		if loopAware {
			return x.L3.LoopVictim(set)
		}
		return x.L3.Victim(set)
	}
}

// Fetch implements Controller: no fill on miss; no invalidation on hit;
// hits mark the outgoing copy as a potential loop-block.
func (c *LAP) Fetch(x *Ctx, block uint64) FetchResult {
	x.Met.L3Accesses++
	x.tagAccess()
	set := x.L3.SetOf(block)
	if c.mode == DuelingReplacement {
		c.duel.Observe(x.Now)
	}
	if w := x.L3.Lookup(block); w >= 0 {
		x.Met.L3Hits++
		lat := x.dataRead(set, w)
		// The copy stays; its own loop-bit is refreshed when the L2 copy
		// comes back (Fig. 10b). Mark the L2 copy as loop-candidate.
		if x.Prof != nil {
			x.Prof.OnFetch(block, true)
		}
		return FetchResult{Hit: true, Lat: lat, Loop: true}
	}
	x.Met.L3Misses++
	lat := x.memRead(block)
	if c.mode == DuelingReplacement {
		c.duel.AddCost(c.duel.RoleOf(set), 1)
	}
	if x.Prof != nil {
		x.Prof.OnFetch(block, false)
	}
	// Data is installed only in the upper levels: no redundant data-fill.
	return FetchResult{Lat: lat}
}

// EvictL2 implements Controller (Fig. 8 and Fig. 10b).
func (c *LAP) EvictL2(x *Ctx, v cache.Line) {
	x.tagAccess()
	set := x.L3.SetOf(v.Tag)
	if w := x.L3.Probe(v.Tag); w >= 0 {
		l := x.L3.Meta(set, w)
		if v.Dirty {
			// Dirty data and loop-bit are both updated in place.
			l.Dirty = true
			l.Loop = v.Loop
			x.L3.Touch(set, w)
			x.dataWrite(set, w)
			x.Met.AddWrite(SrcDirty)
			return
		}
		// Clean victim with a duplicate: drop the data, refresh only the
		// loop-bit in the SRAM tag array — the write LAP exists to avoid.
		l.Loop = v.Loop
		x.L3.Touch(set, w)
		x.tagAccess()
		x.Met.TagOnlyUpdates++
		return
	}
	src := SrcClean
	if v.Dirty {
		src = SrcDirty
	}
	x.insert(v.Tag, v.Dirty, v.Loop, src, c.victimSelector(x))
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name:            "LAP-LRU",
		Description:     "LAP data flow with plain LRU replacement",
		SampledEligible: true,
		BankedEligible:  true,
		Rank:            6,
		New:             func(PolicyParams) Controller { return NewLAPVariant(AlwaysLRU) },
	})
	RegisterPolicy(PolicyInfo{
		Name:            "LAP-Loop",
		Description:     "LAP data flow, always evicting non-loop-blocks first",
		SampledEligible: true,
		BankedEligible:  true,
		Rank:            7,
		New:             func(PolicyParams) Controller { return NewLAPVariant(AlwaysLoopAware) },
	})
	RegisterPolicy(PolicyInfo{
		Name:            "LAP",
		Description:     "LAP with set-dueling between LRU and loop-aware replacement",
		SampledEligible: true,
		BankedEligible:  true,
		Rank:            8,
		New:             func(PolicyParams) Controller { return NewLAP() },
	})
}
