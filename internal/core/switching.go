package core

import "repro/internal/cache"

// Dynamic inclusion-switching baselines. Both select between the
// non-inclusive and exclusive flows per set-dueling, differing only in
// the cost metric the duel minimises:
//
//   - FLEXclusion (Sim et al. [25]) optimises performance and on-chip
//     bandwidth — misses dominate, writes are weighted only as bandwidth,
//     and the asymmetric write energy is invisible to it.
//   - Dswitch (Cheng et al. [26]) weighs LLC writes by their actual
//     energy, so it picks the more energy-efficient traditional mode.
//
// The paper's point is that *neither* can beat LAP, because both modes
// carry their own species of redundant write.

type switching struct {
	name      string
	duel      *cache.Duel
	missCost  float64
	writeCost float64
	noni      NonInclusive
	ex        Exclusive
}

// NewFLEXclusion returns the FLEXclusion baseline: set-dueling between
// non-inclusion and exclusion on a miss+bandwidth cost.
func NewFLEXclusion() Controller {
	return &switching{name: "FLEXclusion", duel: cache.NewDuel(), missCost: 1, writeCost: 0.25}
}

// NewDswitch returns the Dswitch baseline: set-dueling between
// non-inclusion and exclusion on an energy cost. missNJ approximates the
// energy cost of one additional LLC miss (extra runtime leakage plus the
// memory-side fill), and writeNJ is the technology's write energy.
func NewDswitch(missNJ, writeNJ float64) Controller {
	return &switching{name: "Dswitch", duel: cache.NewDuel(), missCost: missNJ, writeCost: writeNJ}
}

// Name implements Controller.
func (c *switching) Name() string { return c.name }

// Duel exposes the dueling state for tests.
func (c *switching) Duel() *cache.Duel { return c.duel }

// mode reports the inclusion property the given set currently runs:
// LeaderA sets (and followers when A wins) are non-inclusive, LeaderB
// sets are exclusive.
func (c *switching) mode(set int) cache.Role { return c.duel.PolicyOf(set) }

// charge adds the cost of the events that occurred during one dispatched
// operation to the set's leader group.
func (c *switching) charge(x *Ctx, set int, missed bool, writesBefore uint64) {
	role := c.duel.RoleOf(set)
	if role == cache.Follower {
		return
	}
	if missed {
		c.duel.AddCost(role, c.missCost)
	}
	if dw := x.Met.WritesToLLC() - writesBefore; dw > 0 {
		c.duel.AddCost(role, c.writeCost*float64(dw))
	}
}

// Fetch implements Controller.
func (c *switching) Fetch(x *Ctx, block uint64) FetchResult {
	c.duel.Observe(x.Now)
	set := x.L3.SetOf(block)
	before := x.Met.WritesToLLC()
	var r FetchResult
	if c.mode(set) == cache.LeaderA {
		r = c.noni.Fetch(x, block)
	} else {
		r = c.ex.Fetch(x, block)
	}
	c.charge(x, set, !r.Hit, before)
	return r
}

// EvictL2 implements Controller.
func (c *switching) EvictL2(x *Ctx, v cache.Line) {
	set := x.L3.SetOf(v.Tag)
	before := x.Met.WritesToLLC()
	if c.mode(set) == cache.LeaderA {
		c.noni.EvictL2(x, v)
	} else {
		c.ex.EvictL2(x, v)
	}
	c.charge(x, set, false, before)
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name:            "FLEXclusion",
		Description:     "duels non-inclusion vs exclusion on capacity/bandwidth demand",
		SampledEligible: true,
		Rank:            4,
		New:             func(PolicyParams) Controller { return NewFLEXclusion() },
	})
	RegisterPolicy(PolicyInfo{
		Name:            "Dswitch",
		Description:     "duels non-inclusion vs exclusion weighing LLC writes by energy",
		SampledEligible: true,
		Rank:            5,
		New:             func(p PolicyParams) Controller { return NewDswitch(p.MissNJ, p.WriteNJ) },
	})
}
