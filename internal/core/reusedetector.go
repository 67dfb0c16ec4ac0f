package core

import "repro/internal/cache"

// ReuseDetector implements the reuse-detection bypass for STT-RAM shared
// LLCs (arXiv 2402.00533): most blocks brought into an LLC are never
// referenced there again, so writing them into the STT-RAM data array is
// pure write energy wasted. The controller keeps the non-inclusive data
// flow but gates every fill and every dirty-victim insertion on a small
// reuse detector — a direct-mapped signature table remembering which
// blocks have missed in the LLC before. A block is only installed on its
// second LLC touch; first-touch fills are bypassed straight to the core
// (counted in Metrics.BypassedFills) and first-touch dirty victims go
// straight to memory (Metrics.BypassedWrites). Detector probes are
// charged to the SRAM tag array like every other metadata access.
const (
	reuseSigBits = 14
	reuseSigSize = 1 << reuseSigBits
)

// ReuseDetector is the "reuse-detector" policy controller.
type ReuseDetector struct {
	// sig is the direct-mapped reuse signature table. Each slot holds
	// block+1 of the last block hashed there (0 = empty); a matching
	// signature on a miss means the block was seen before and is
	// predicted to have LLC-level reuse.
	sig []uint64
}

// NewReuseDetector returns the reuse-detection bypass controller.
func NewReuseDetector() *ReuseDetector {
	return &ReuseDetector{sig: make([]uint64, reuseSigSize)}
}

// Name implements Controller.
func (*ReuseDetector) Name() string { return "reuse-detector" }

// reuseSlot hashes a block address into the signature table.
func reuseSlot(block uint64) uint64 {
	return (block * 0x9e3779b97f4a7c15) >> (64 - reuseSigBits)
}

// probe checks the detector for a prior touch of block, recording the
// touch either way. The probe reads/updates a small SRAM array and is
// charged like a tag access.
func (c *ReuseDetector) probe(x *Ctx, block uint64) bool {
	x.tagAccess()
	s := &c.sig[reuseSlot(block)]
	seen := *s == block+1
	*s = block + 1
	return seen
}

// Fetch implements Controller: the non-inclusive flow, except that a
// miss only fills the LLC when the detector predicts reuse.
func (c *ReuseDetector) Fetch(x *Ctx, block uint64) FetchResult {
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
	if c.probe(x, block) {
		x.insert(block, false, false, SrcFill, x.L3.Victim)
	} else {
		x.Met.BypassedFills++
	}
	return FetchResult{Lat: lat}
}

// EvictL2 implements Controller: dirty victims with a resident duplicate
// update it in place; without one they are only installed when the
// detector predicts reuse, otherwise the write bypasses the STT-RAM
// array straight to memory. Clean victims are dropped (non-inclusive).
func (c *ReuseDetector) EvictL2(x *Ctx, v cache.Line) {
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
	if c.probe(x, v.Tag) {
		x.insert(v.Tag, true, false, SrcDirty, x.L3.Victim)
		return
	}
	x.Met.BypassedWrites++
	x.memWrite(v.Tag)
}

func init() {
	// Bypass decisions depend on detector state accumulated over the
	// whole run; interval-sampled simulation resets that state at every
	// jump, which would systematically under-predict reuse — so the
	// policy is exact-mode only (refused, never silently wrong).
	RegisterPolicy(PolicyInfo{
		Name:           "reuse-detector",
		Description:    "non-inclusive flow, fills and dirty insertions gated on detected LLC reuse",
		BankedEligible: true,
		Rank:           10,
		New:            func(PolicyParams) Controller { return NewReuseDetector() },
	})
}
