package core

import "repro/internal/cache"

// Traditional inclusion properties (paper Fig. 1). The non-inclusive LLC
// fills on miss and keeps duplicates on hit; the exclusive LLC never fills
// on miss, invalidates on hit, and absorbs every L2 victim; the inclusive
// LLC behaves like the non-inclusive one plus back-invalidation of the
// upper levels when it evicts a block.

// NonInclusive implements the paper's baseline policy (Fig. 1b):
// Writes(L3) = data-fills + dirty victims.
type NonInclusive struct{}

// NewNonInclusive returns the non-inclusive controller.
func NewNonInclusive() *NonInclusive { return &NonInclusive{} }

// Name implements Controller.
func (*NonInclusive) Name() string { return "non-inclusive" }

// Fetch implements Controller: fill both levels on miss, keep the
// duplicate on hit.
func (*NonInclusive) Fetch(x *Ctx, block uint64) FetchResult {
	x.Met.L3Accesses++
	x.tagAccess()
	if w := x.L3.Lookup(block); w >= 0 {
		x.Met.L3Hits++
		lat := x.dataRead(x.L3.SetOf(block), w)
		if x.Prof != nil {
			x.Prof.OnFetch(block, true)
		}
		return FetchResult{Hit: true, Lat: lat}
	}
	x.Met.L3Misses++
	lat := x.memRead(block)
	if x.Prof != nil {
		x.Prof.OnFetch(block, false)
	}
	x.insert(block, false, false, SrcFill, x.L3.Victim)
	return FetchResult{Lat: lat}
}

// EvictL2 implements Controller: dirty victims are written to the L3
// (updating a duplicate in place when one exists); clean victims are
// silently dropped.
func (*NonInclusive) EvictL2(x *Ctx, v cache.Line) {
	if !v.Dirty {
		return
	}
	x.tagAccess()
	if w := x.L3.Probe(v.Tag); w >= 0 {
		set := x.L3.SetOf(v.Tag)
		l := x.L3.Meta(set, w)
		l.Dirty = true
		x.L3.Touch(set, w)
		x.dataWrite(set, w)
		x.Met.AddWrite(SrcDirty)
		return
	}
	x.insert(v.Tag, true, false, SrcDirty, x.L3.Victim)
}

// Exclusive implements the exclusive policy (Fig. 1c):
// Writes(L3) = clean victims + dirty victims.
type Exclusive struct{}

// NewExclusive returns the exclusive controller.
func NewExclusive() *Exclusive { return &Exclusive{} }

// Name implements Controller.
func (*Exclusive) Name() string { return "exclusive" }

// Fetch implements Controller: serve and invalidate on hit, bypass the
// LLC entirely on miss.
func (*Exclusive) Fetch(x *Ctx, block uint64) FetchResult {
	x.Met.L3Accesses++
	x.tagAccess()
	if w := x.L3.Lookup(block); w >= 0 {
		x.Met.L3Hits++
		set := x.L3.SetOf(block)
		lat := x.dataRead(set, w)
		x.L3.Evict(set, w) // invalidate-on-hit; the L2 copy carries the dirt
		if x.Prof != nil {
			x.Prof.OnFetch(block, true)
		}
		return FetchResult{Hit: true, Lat: lat}
	}
	x.Met.L3Misses++
	lat := x.memRead(block)
	if x.Prof != nil {
		x.Prof.OnFetch(block, false)
	}
	return FetchResult{Lat: lat}
}

// EvictL2 implements Controller: every victim is installed. (After an
// inclusion-mode switch a duplicate may linger; it is updated in place.)
func (*Exclusive) EvictL2(x *Ctx, v cache.Line) {
	src := SrcClean
	if v.Dirty {
		src = SrcDirty
	}
	x.tagAccess()
	if w := x.L3.Probe(v.Tag); w >= 0 {
		set := x.L3.SetOf(v.Tag)
		l := x.L3.Meta(set, w)
		l.Dirty = l.Dirty || v.Dirty
		l.Loop = v.Loop
		x.L3.Touch(set, w)
		x.dataWrite(set, w)
		x.Met.AddWrite(src)
		if x.Prof != nil && src == SrcClean {
			x.Prof.OnCleanInsert(v.Tag)
		}
		return
	}
	x.insert(v.Tag, v.Dirty, v.Loop, src, x.L3.Victim)
}

// Inclusive implements the strictly inclusive policy (Fig. 1a): the
// non-inclusive flow plus back-invalidation of upper-level copies when
// the LLC evicts a block. The paper excludes it from the main evaluation
// (bypassing writes is impossible under strict inclusion) but uses it as
// background; it is provided for completeness and the Fig. 1 data-flow
// tests.
type Inclusive struct {
	noni NonInclusive
}

// NewInclusive returns the inclusive controller. The simulator must set
// Ctx.BackInvalidate for it to enforce inclusion.
func NewInclusive() *Inclusive { return &Inclusive{} }

// Name implements Controller.
func (*Inclusive) Name() string { return "inclusive" }

// Fetch implements Controller. Back-invalidation happens in
// Ctx.evictVictim whenever Ctx.BackInvalidate is non-nil.
func (c *Inclusive) Fetch(x *Ctx, block uint64) FetchResult {
	return c.noni.Fetch(x, block)
}

// EvictL2 implements Controller.
func (c *Inclusive) EvictL2(x *Ctx, v cache.Line) { c.noni.EvictL2(x, v) }

func init() {
	RegisterPolicy(PolicyInfo{
		Name:            "non-inclusive",
		Description:     "baseline inclusion property; fills both levels, drops clean victims",
		SampledEligible: true,
		BankedEligible:  true,
		Rank:            1,
		New:             func(PolicyParams) Controller { return NewNonInclusive() },
	})
	RegisterPolicy(PolicyInfo{
		Name:            "exclusive",
		Description:     "fills upper level only, invalidates on hit, inserts all victims",
		SampledEligible: true,
		BankedEligible:  true,
		Rank:            2,
		New:             func(PolicyParams) Controller { return NewExclusive() },
	})
	// Inclusive back-invalidates upper-level copies on LLC eviction, a
	// globally ordered cross-core side effect the banked engine cannot
	// replay, so it is the one banked-ineligible policy.
	RegisterPolicy(PolicyInfo{
		Name:            "inclusive",
		Description:     "non-inclusive flow plus back-invalidation of upper-level copies",
		SampledEligible: true,
		Rank:            3,
		New:             func(PolicyParams) Controller { return NewInclusive() },
	})
}
