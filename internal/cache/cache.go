// Package cache implements the set-associative cache model used at every
// level of the simulated hierarchy: lines with valid/dirty/loop-bit state,
// LRU recency tracking, pluggable victim selection (including the paper's
// loop-block-aware policy), set-dueling, and the SRAM/STT-RAM way
// partitioning needed by hybrid LLCs.
//
// Addresses handled by this package are block numbers (byte address
// divided by the block size); the hierarchy layer performs the shift once
// at its edge.
//
// Each line's state is stored once, split by how often the simulator hot
// loop touches it: a packed per-set tag array and valid bitmask are
// scanned on every probe; the remaining per-line bits (dirty, loop-bit,
// shared, RRPV) live in a 4-byte Meta array touched only on hits, fills
// and evictions; and recency is a compact per-set LRU ordering (one byte
// per way), so a touch is a byte shuffle instead of a global-counter
// stamp write. A line costs 13 bytes in all. Line is not stored: it is
// the value Evict and Invalidate assemble from the arrays.
package cache

import (
	"fmt"
	"math/bits"
)

// Meta is the per-line state stored beside a tag. The simulator is
// trace-driven, so no data payload is stored. Callers mutate it through
// the pointer Meta returns; the tag and valid bit change only through
// InsertAt/Evict/Invalidate/Reset.
type Meta struct {
	// Dirty reports whether the block has been modified since it was
	// filled or last written back.
	Dirty bool
	// Loop is the paper's loop-bit: set when the block was served by an
	// LLC hit and has not been written since (Section III-C, Fig. 10).
	Loop bool
	// Shared marks lines known to be replicated in a peer core's private
	// cache; used by the coherence model to trigger write invalidations.
	Shared bool
	// rrpv is the 2-bit re-reference prediction value (RRIP replacement).
	rrpv uint8
}

// Line is one line's full contents, assembled from the cache's arrays:
// the value Evict and Invalidate return and victims are handed on as.
// Tag holds the full block number, which both identifies the block and
// lets a line be re-expanded to its address.
type Line struct {
	// Tag is the block number stored in this line.
	Tag uint64
	// Valid reports whether the line holds a block.
	Valid bool
	// Dirty, Loop and Shared are the line's Meta bits.
	Dirty, Loop, Shared bool
}

// Config sizes a cache.
type Config struct {
	// Name labels the cache in stats output ("L1", "L2", "L3").
	Name string
	// SizeBytes is the total capacity. Must be a power-of-two multiple of
	// Ways*BlockBytes.
	SizeBytes int
	// Ways is the associativity (at most 64).
	Ways int
	// BlockBytes is the cache-block size (64 in the paper).
	BlockBytes int
	// SRAMWays, when positive, declares the first SRAMWays ways of every
	// set to be the SRAM region of a hybrid cache; the remainder is the
	// STT-RAM region. Zero means a single-technology cache.
	SRAMWays int
	// Replacement selects the base replacement family (LRU or RRIP).
	Replacement Replacement
}

// Cache is a set-associative cache. It exposes fine-grained operations
// (probe, touch, insert-at-way, invalidate) rather than a monolithic
// access method, because the inclusion controllers in internal/core need
// to orchestrate non-standard data flows such as LAP's
// "hit-without-invalidate" and the hybrid LLC's SRAM→STT migration.
type Cache struct {
	cfg     Config
	numSets int
	setMask uint64
	ways    int
	// tags is the packed per-set tag array: tags[set*ways+way] is the
	// block number when the corresponding valid bit is set.
	tags []uint64
	// valid holds one bitmask word per set; bit w is way w's valid bit.
	valid []uint64
	// order holds the per-set recency ordering: order[set*ways+k] is the
	// way at recency rank k, rank 0 being LRU and ways-1 being MRU.
	order []uint8
	// meta is the per-line state store, indexed like tags.
	meta []Meta
	// fills is the running count of valid lines (see FillCount).
	fills int

	// Hits and Misses count Lookup outcomes.
	Hits, Misses uint64
}

// New builds a cache from cfg. It panics on a malformed configuration,
// since configurations are compile-time constants in this codebase.
func New(cfg Config) *Cache {
	if cfg.BlockBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %q: non-positive geometry: %+v", cfg.Name, cfg))
	}
	if cfg.Ways > 64 {
		panic(fmt.Sprintf("cache %q: %d ways exceeds the 64-way limit", cfg.Name, cfg.Ways))
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	if blocks%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %q: capacity not divisible into %d ways", cfg.Name, cfg.Ways))
	}
	sets := blocks / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %q: %d sets is not a power of two", cfg.Name, sets))
	}
	if cfg.SRAMWays < 0 || cfg.SRAMWays > cfg.Ways {
		panic(fmt.Sprintf("cache %q: SRAMWays %d out of range", cfg.Name, cfg.SRAMWays))
	}
	c := &Cache{
		cfg:     cfg,
		numSets: sets,
		setMask: uint64(sets - 1),
		ways:    cfg.Ways,
		tags:    make([]uint64, sets*cfg.Ways),
		valid:   make([]uint64, sets),
		order:   make([]uint8, sets*cfg.Ways),
		meta:    make([]Meta, sets*cfg.Ways),
	}
	c.resetOrder()
	return c
}

// resetOrder restores the identity recency ordering in every set.
func (c *Cache) resetOrder() {
	for s := 0; s < c.numSets; s++ {
		base := s * c.ways
		for w := 0; w < c.ways; w++ {
			c.order[base+w] = uint8(w)
		}
	}
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetOf maps a block number to its set index.
func (c *Cache) SetOf(block uint64) int { return int(block & c.setMask) }

// Meta returns the state of the line at (set, way) for inspection or
// mutation.
func (c *Cache) Meta(set, way int) *Meta { return &c.meta[set*c.ways+way] }

// Line assembles the contents of the line at (set, way).
func (c *Cache) Line(set, way int) Line {
	idx := set*c.ways + way
	m := c.meta[idx]
	return Line{
		Tag:    c.tags[idx],
		Valid:  c.valid[set]&(1<<uint(way)) != 0,
		Dirty:  m.Dirty,
		Loop:   m.Loop,
		Shared: m.Shared,
	}
}

// IsSRAMWay reports whether the given way lies in the SRAM region of a
// hybrid cache. For single-technology caches it is always false.
func (c *Cache) IsSRAMWay(way int) bool { return way < c.cfg.SRAMWays }

// SRAMWays returns the number of SRAM ways per set (0 for single-tech).
func (c *Cache) SRAMWays() int { return c.cfg.SRAMWays }

// probeIn scans the packed tag array of one set for block, returning the
// way index or -1. The Meta array is not touched.
func (c *Cache) probeIn(set int, block uint64) int {
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	vm := c.valid[set]
	for w, t := range tags {
		if t == block && vm&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1
}

// Probe looks a block up without touching recency or hit/miss counters.
// It returns the way index, or -1 if the block is absent.
func (c *Cache) Probe(block uint64) int {
	return c.probeIn(int(block&c.setMask), block)
}

// Lookup probes for a block and, on a hit, promotes it to MRU. It updates
// the Hits/Misses counters and returns the way index or -1.
func (c *Cache) Lookup(block uint64) int {
	set := int(block & c.setMask)
	w := c.probeIn(set, block)
	if w < 0 {
		c.Misses++
		return -1
	}
	c.Hits++
	c.touchIn(set, w)
	return w
}

// touchIn moves (set, way) to the MRU rank of its set's recency ordering.
func (c *Cache) touchIn(set, way int) {
	base := set * c.ways
	ord := c.order[base : base+c.ways]
	w := uint8(way)
	last := c.ways - 1
	if ord[last] != w {
		for i, v := range ord {
			if v == w {
				copy(ord[i:], ord[i+1:])
				ord[last] = w
				break
			}
		}
	}
	if c.cfg.Replacement == ReplRRIP {
		c.meta[base+way].rrpv = rrpvPromote
	}
}

// Touch promotes the line at (set, way): its recency rank becomes MRU
// and, under RRIP, its re-reference prediction becomes immediate.
func (c *Cache) Touch(set, way int) { c.touchIn(set, way) }

// Stamp returns the recency rank of (set, way): 0 is the set's LRU
// position, Ways()-1 its MRU. Exported for tests, which compare ranks of
// valid lines relatively; invalid lines' ranks are unspecified.
func (c *Cache) Stamp(set, way int) uint64 {
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		if int(c.order[base+i]) == way {
			return uint64(i)
		}
	}
	panic("cache: way missing from recency ordering")
}

// InsertAt places a block into (set, way), overwriting whatever was there,
// and promotes it to MRU. The caller is responsible for having evicted the
// previous occupant (see Evict).
func (c *Cache) InsertAt(set, way int, block uint64, dirty, loop bool) {
	idx := set*c.ways + way
	if bit := uint64(1) << uint(way); c.valid[set]&bit == 0 {
		c.valid[set] |= bit
		c.fills++
	}
	c.tags[idx] = block
	m := &c.meta[idx]
	*m = Meta{Dirty: dirty, Loop: loop}
	c.touchIn(set, way)
	if c.cfg.Replacement == ReplRRIP {
		m.rrpv = rrpvInsert
	}
}

// Evict invalidates (set, way) and returns the previous contents. The
// second result is false if the line was already invalid.
func (c *Cache) Evict(set, way int) (Line, bool) {
	idx := set*c.ways + way
	old := c.Line(set, way)
	c.meta[idx] = Meta{}
	c.tags[idx] = 0
	if old.Valid {
		c.valid[set] &^= 1 << uint(way)
		c.fills--
	}
	return old, old.Valid
}

// Invalidate removes a block if present, returning the line it occupied.
func (c *Cache) Invalidate(block uint64) (Line, bool) {
	set := int(block & c.setMask)
	w := c.probeIn(set, block)
	if w < 0 {
		return Line{}, false
	}
	return c.Evict(set, w)
}

// FillCount returns the number of valid lines. It is a running counter,
// not a scan, so telemetry paths can call it per interval.
func (c *Cache) FillCount() int { return c.fills }

// Reset invalidates every line and clears counters, preserving geometry.
func (c *Cache) Reset() {
	clear(c.meta)
	clear(c.tags)
	clear(c.valid)
	c.resetOrder()
	c.fills, c.Hits, c.Misses = 0, 0, 0
}

// State is a deep copy of a cache's contents — tags, valid bits,
// recency order, line state, and counters — detached from the live
// arrays. Sampled simulation captures States during the profiling pass
// and restores them before each measured interval, so a replay starts
// from the warm state that trace position actually had rather than
// whatever an earlier jump left behind.
type State struct {
	tags         []uint64
	valid        []uint64
	order        []uint8
	meta         []Meta
	fills        int
	hits, misses uint64
}

// Snapshot copies the cache's current contents into a detached State.
// When reuse is non-nil and geometry-compatible its backing arrays are
// recycled, so a periodic snapshotter allocates only once.
func (c *Cache) Snapshot(reuse *State) *State {
	s := reuse
	if s == nil || len(s.tags) != len(c.tags) {
		s = &State{
			tags:  make([]uint64, len(c.tags)),
			valid: make([]uint64, len(c.valid)),
			order: make([]uint8, len(c.order)),
			meta:  make([]Meta, len(c.meta)),
		}
	}
	copy(s.tags, c.tags)
	copy(s.valid, c.valid)
	copy(s.order, c.order)
	copy(s.meta, c.meta)
	s.fills, s.hits, s.misses = c.fills, c.Hits, c.Misses
	return s
}

// Restore overwrites the cache's contents from a snapshot taken on a
// cache with identical geometry. It panics on a size mismatch, since
// restoring across geometries is always a caller bug.
func (c *Cache) Restore(s *State) {
	if len(s.tags) != len(c.tags) || len(s.valid) != len(c.valid) {
		panic(fmt.Sprintf("cache %q: restoring snapshot of different geometry", c.cfg.Name))
	}
	copy(c.tags, s.tags)
	copy(c.valid, s.valid)
	copy(c.order, s.order)
	copy(c.meta, s.meta)
	c.fills, c.Hits, c.Misses = s.fills, s.hits, s.misses
}

// rangeMask returns the bitmask selecting ways [lo, hi).
func rangeMask(lo, hi int) uint64 {
	m := ^uint64(0) >> uint(64-(hi-lo))
	return m << uint(lo)
}

// invalidIn returns the lowest invalid way in [lo, hi), or -1.
func (c *Cache) invalidIn(set, lo, hi int) int {
	if inv := ^c.valid[set] & rangeMask(lo, hi); inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	return -1
}
