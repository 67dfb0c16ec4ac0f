package core

import "repro/internal/cache"

// RDCopyback implements reuse-distance-gated copy-back of clean lines
// (arXiv 2105.14442): under an exclusive LLC every clean L2 victim is
// copied back into the STT-RAM array, yet a victim whose reuse distance
// exceeds the LLC capacity will be evicted again before its next use —
// the copy-back write is wasted energy. The controller keeps the
// exclusive data flow but estimates each clean victim's reuse distance
// with a global LLC-access clock and a direct-mapped last-touch table;
// victims whose estimated distance exceeds the LLC capacity (in blocks)
// are dropped instead of copied back (Metrics.BypassedWrites). Dirty
// victims always copy back — their data exists nowhere below. Predictor
// probes are charged to the SRAM tag array like other metadata accesses.
const (
	rdcTableBits = 14
	rdcTableSize = 1 << rdcTableBits
)

// RDCopyback is the "rd-copyback" policy controller.
type RDCopyback struct {
	ex Exclusive
	// clock counts LLC fetches; the difference between it and a block's
	// last-touch stamp approximates the block's LLC-level reuse distance.
	clock uint64
	// last is the direct-mapped last-touch stamp table (0 = never seen).
	last []uint64
	// threshold is the copy-back cutoff in LLC accesses, derived lazily
	// from the LLC geometry (capacity in blocks).
	threshold uint64
}

// NewRDCopyback returns the reuse-distance copy-back controller.
func NewRDCopyback() *RDCopyback {
	return &RDCopyback{last: make([]uint64, rdcTableSize)}
}

// Name implements Controller.
func (*RDCopyback) Name() string { return "rd-copyback" }

// rdcSlot hashes a block address into the last-touch table.
func rdcSlot(block uint64) uint64 {
	return (block * 0x9e3779b97f4a7c15) >> (64 - rdcTableBits)
}

// thresholdOf derives the copy-back cutoff: a reuse distance beyond the
// LLC capacity in blocks means the line would not survive until reuse.
func (c *RDCopyback) thresholdOf(x *Ctx) uint64 {
	if c.threshold == 0 {
		c.threshold = uint64(x.L3.NumSets() * x.L3.Ways())
	}
	return c.threshold
}

// Fetch implements Controller: the exclusive flow, with every fetch
// advancing the reuse clock and stamping the block's last touch.
func (c *RDCopyback) Fetch(x *Ctx, block uint64) FetchResult {
	c.clock++
	x.tagAccess()
	c.last[rdcSlot(block)] = c.clock
	return c.ex.Fetch(x, block)
}

// EvictL2 implements Controller: dirty victims follow the exclusive
// copy-back unconditionally; clean victims are only copied back when
// their estimated reuse distance fits in the LLC, otherwise the STT-RAM
// write is skipped and the line is dropped (its data is safe in memory).
func (c *RDCopyback) EvictL2(x *Ctx, v cache.Line) {
	if v.Dirty {
		c.ex.EvictL2(x, v)
		return
	}
	x.tagAccess()
	stamp := c.last[rdcSlot(v.Tag)]
	if stamp != 0 && c.clock-stamp <= c.thresholdOf(x) {
		c.ex.EvictL2(x, v)
		return
	}
	x.Met.BypassedWrites++
}

func init() {
	// The reuse clock and last-touch stamps accumulate over the whole
	// run; interval-sampled simulation skips the accesses between
	// intervals, which would inflate every estimated distance — so the
	// policy is exact-mode only (refused, never silently wrong).
	RegisterPolicy(PolicyInfo{
		Name:        "rd-copyback",
		Description: "exclusive flow, clean copy-backs gated on estimated reuse distance vs LLC capacity",
		Rank:        11,
		New:         func(PolicyParams) Controller { return NewRDCopyback() },
	})
}
