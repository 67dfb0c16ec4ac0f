package core

import "repro/internal/cache"

// Dead-write bypass (after Ahn et al., "DASCA: Dead Write Prediction
// Assisted STT-RAM Cache Architecture", HPCA 2014 — the paper's reference
// [34]). A write to the LLC is "dead" when the block is evicted again
// without ever being re-read; predicting dead writes and bypassing them
// straight to memory removes their STT-RAM write energy. The paper calls
// this technique orthogonal to LAP ("can be combined with our approaches
// to further reduce the dynamic energy consumption"); DeadWriteBypass is
// a wrapper over any inclusion controller, so both the baseline
// (non-inclusive + DWB) and the combination (LAP + DWB) are expressible.
//
// The predictor is an address-hashed table of saturating 2-bit counters,
// trained by outcome: an LLC insertion that is later hit trains towards
// "live"; one that is evicted untouched trains towards "dead".

// dwbTableSize is the predictor size (entries of 2-bit counters).
const dwbTableSize = 1 << 14

// dwbDeadThreshold is the counter value at which a write is predicted dead.
const dwbDeadThreshold = 2

// DeadWriteBypass wraps a base controller with dead-write prediction.
type DeadWriteBypass struct {
	base    Controller
	table   []uint8
	pending map[uint64]struct{} // blocks inserted and not yet reused
}

// NewDeadWriteBypass wraps base with a dead-write predictor.
func NewDeadWriteBypass(base Controller) *DeadWriteBypass {
	return &DeadWriteBypass{
		base:    base,
		table:   make([]uint8, dwbTableSize),
		pending: make(map[uint64]struct{}),
	}
}

// Name implements Controller.
func (c *DeadWriteBypass) Name() string { return c.base.Name() + "+DWB" }

// Base returns the wrapped controller, so the simulator can see the
// inclusion policy underneath (an inclusive base still back-invalidates).
func (c *DeadWriteBypass) Base() Controller { return c.base }

// Duel forwards the base controller's dueling state when it has one.
func (c *DeadWriteBypass) Duel() *cache.Duel {
	if d, ok := c.base.(interface{ Duel() *cache.Duel }); ok {
		return d.Duel()
	}
	return nil
}

func (c *DeadWriteBypass) slot(block uint64) *uint8 {
	h := block * 0x9e3779b97f4a7c15
	return &c.table[h>>(64-14)]
}

func (c *DeadWriteBypass) predictedDead(block uint64) bool {
	return *c.slot(block) >= dwbDeadThreshold
}

func (c *DeadWriteBypass) trainDead(block uint64) {
	if s := c.slot(block); *s < 3 {
		*s++
	}
}

func (c *DeadWriteBypass) trainLive(block uint64) {
	if s := c.slot(block); *s > 0 {
		*s = 0 // strong reset: one reuse proves the write was live
	}
}

// onL3Evict is installed as the Ctx eviction observer: an insertion that
// leaves the LLC untouched was a dead write.
func (c *DeadWriteBypass) onL3Evict(block uint64) {
	if _, ok := c.pending[block]; ok {
		delete(c.pending, block)
		c.trainDead(block)
	}
}

// hook installs the eviction observer once per run.
func (c *DeadWriteBypass) hook(x *Ctx) {
	if x.EvictObserver == nil {
		x.EvictObserver = c.onL3Evict
	}
}

// Fetch implements Controller: delegate, and train "live" when a hit
// touches one of our pending insertions.
func (c *DeadWriteBypass) Fetch(x *Ctx, block uint64) FetchResult {
	c.hook(x)
	r := c.base.Fetch(x, block)
	if r.Hit {
		if _, ok := c.pending[block]; ok {
			delete(c.pending, block)
			c.trainLive(block)
		}
	}
	return r
}

// EvictL2 implements Controller: dirty victims predicted dead bypass the
// LLC and go straight to memory; clean victims predicted dead are simply
// dropped (their data is already safe in memory or the LLC). Everything
// else flows through the base policy, and resulting LLC insertions are
// tracked for training.
func (c *DeadWriteBypass) EvictL2(x *Ctx, v cache.Line) {
	c.hook(x)
	if c.predictedDead(v.Tag) && x.L3.Probe(v.Tag) < 0 {
		x.Met.BypassedWrites++
		if v.Dirty {
			x.memWrite(v.Tag)
		}
		// Re-arm training: a bypassed block that later misses and gets
		// re-fetched will not retrain towards live (conservative, as in
		// DASCA's design where mispredictions cost an extra memory trip).
		return
	}
	inL3Before := x.L3.Probe(v.Tag) >= 0
	c.base.EvictL2(x, v)
	if !inL3Before && x.L3.Probe(v.Tag) >= 0 {
		c.pending[v.Tag] = struct{}{}
	}
}
