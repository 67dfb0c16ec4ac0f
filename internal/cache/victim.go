package cache

// Victim selection policies. The paper's loop-block-aware replacement
// (Section III-B, Fig. 9) selects, in priority order: an invalid way, the
// LRU non-loop-block, and only as a last resort the LRU loop-block. The
// baseline is plain LRU. Both are provided as range-restricted primitives
// so the hybrid LLC can apply them within its SRAM or STT-RAM way regions.
//
// Selectors consult the set's line words and its recency order.

// VictimIn returns the victim way in [lo, hi) of the given set using plain
// LRU: an invalid way if one exists, otherwise the least recently used.
// It panics if the range is empty.
func (c *Cache) VictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	if w := c.invalidIn(set, lo, hi); w >= 0 {
		return w
	}
	for k := 0; k < c.ways; k++ {
		if w := c.rank(set, k); w >= lo && w < hi {
			return w
		}
	}
	panic("cache: victim range missing from recency order")
}

// LoopAwareVictimIn returns the victim way in [lo, hi) using the paper's
// loop-block-aware priority: invalid → LRU non-loop-block → LRU loop-block.
func (c *Cache) LoopAwareVictimIn(set, lo, hi int) int {
	if lo >= hi {
		panic("cache: empty victim range")
	}
	if w := c.invalidIn(set, lo, hi); w >= 0 {
		return w
	}
	base := set * c.ways
	lruLoop := -1
	for k := 0; k < c.ways; k++ {
		w := c.rank(set, k)
		if w < lo || w >= hi {
			continue
		}
		if !c.lines[base+w].Loop() {
			return w
		}
		if lruLoop < 0 {
			lruLoop = w
		}
	}
	return lruLoop
}

// LRUVictim returns the plain-LRU victim across all ways of a set.
func (c *Cache) LRUVictim(set int) int { return c.VictimIn(set, 0, c.ways) }

// LoopAwareVictim returns the loop-aware victim across all ways of a set.
func (c *Cache) LoopAwareVictim(set int) int { return c.LoopAwareVictimIn(set, 0, c.ways) }

// MRUWhere returns the most recently used way in [lo, hi) whose line
// satisfies pred, or -1 if none does. The hybrid LLC uses it to pick the
// MRU loop-block to migrate from SRAM to STT-RAM (Fig. 11b).
func (c *Cache) MRUWhere(set, lo, hi int, pred func(*Meta) bool) int {
	base := set * c.ways
	for k := c.ways - 1; k >= 0; k-- {
		w := c.rank(set, k)
		if w < lo || w >= hi {
			continue
		}
		if l := &c.lines[base+w]; l.valid() && pred(l) {
			return w
		}
	}
	return -1
}

// InvalidWayIn returns an invalid way in [lo, hi), or -1 if the range is
// fully occupied.
func (c *Cache) InvalidWayIn(set, lo, hi int) int { return c.invalidIn(set, lo, hi) }
