package cache

// RRIP replacement (Jaleel et al. [37], "High performance cache
// replacement using re-reference interval prediction"). The paper notes
// (Section IV) that LAP's loop-block-aware victim selection composes with
// RRIP exactly as with LRU: "selecting an LRU block is just like
// selecting a block with distant re-reference interval, while selecting
// an MRU block is just like selecting a block with immediate re-reference
// interval". This file implements 2-bit SRRIP and its loop-aware variant.

// rrip constants: 2-bit re-reference prediction values.
const (
	rrpvBits    = 2
	rrpvMax     = 1<<rrpvBits - 1 // 3: predicted distant re-reference
	rrpvInsert  = rrpvMax - 1     // 2: SRRIP insertion value
	rrpvPromote = 0               // re-referenced: predicted immediate
)

// Replacement selects the base replacement family for a cache.
type Replacement int

// Replacement families. ReplLRU is the paper's default; ReplRRIP is the
// SRRIP alternative called out in Section IV. LRU recency orderings are
// always maintained (the hybrid LLC's MRU migration scan needs them);
// RRIP additionally tracks per-line RRPVs.
const (
	ReplLRU Replacement = iota
	ReplRRIP
)

// String names the replacement family.
func (r Replacement) String() string {
	if r == ReplRRIP {
		return "RRIP"
	}
	return "LRU"
}

// rripVictimIn returns the SRRIP victim in [lo, hi): the first way in
// way order that is invalid or at the maximum RRPV, ageing the range
// until one exists. An invalid way after a distant one is not preferred.
func (c *Cache) rripVictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	lines := c.lines[set*c.ways+lo : set*c.ways+hi]
	for {
		for w, l := range lines {
			if !l.valid() || l.rrpv() >= rrpvMax {
				return lo + w
			}
		}
		age(lines)
	}
}

// rripLoopAwareVictimIn is the loop-block-aware SRRIP victim: the first
// way in way order that is invalid or a non-loop-block at the maximum
// RRPV, or, when every way holds a loop-block, the first one at the
// maximum RRPV (ageing as needed).
func (c *Cache) rripLoopAwareVictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	lines := c.lines[set*c.ways+lo : set*c.ways+hi]
	for {
		bestLoop := -1
		for w, l := range lines {
			if !l.valid() {
				return lo + w
			}
			if l.rrpv() >= rrpvMax {
				if !l.Loop() {
					return lo + w
				}
				if bestLoop < 0 {
					bestLoop = lo + w
				}
			}
		}
		// Check whether any non-loop block can still age to distant; if
		// every line is a loop-block, fall back to the distant loop-block.
		anyNonLoop := false
		for _, l := range lines {
			if !l.Loop() {
				anyNonLoop = true
				break
			}
		}
		if !anyNonLoop && bestLoop >= 0 {
			return bestLoop
		}
		age(lines)
	}
}

// age advances every line's RRPV one step toward distant, in place.
func age(lines []Meta) {
	for i := range lines {
		if lines[i].rrpv() < rrpvMax {
			lines[i] += 1 << rrpvShift
		}
	}
}

// Victim returns the configured family's victim across the whole set.
func (c *Cache) Victim(set int) int { return c.VictimInRange(set, 0, c.ways) }

// VictimInRange returns the configured family's victim within [lo, hi).
func (c *Cache) VictimInRange(set, lo, hi int) int {
	if c.cfg.Replacement == ReplRRIP {
		return c.rripVictimIn(set, lo, hi)
	}
	return c.VictimIn(set, lo, hi)
}

// LoopVictim returns the configured family's loop-aware victim across the
// whole set.
func (c *Cache) LoopVictim(set int) int { return c.LoopVictimInRange(set, 0, c.ways) }

// LoopVictimInRange returns the configured family's loop-aware victim
// within [lo, hi).
func (c *Cache) LoopVictimInRange(set, lo, hi int) int {
	if c.cfg.Replacement == ReplRRIP {
		return c.rripLoopAwareVictimIn(set, lo, hi)
	}
	return c.LoopAwareVictimIn(set, lo, hi)
}

// RRPV exposes a line's re-reference prediction value for tests.
func (c *Cache) RRPV(set, way int) uint8 { return c.lines[set*c.ways+way].rrpv() }
