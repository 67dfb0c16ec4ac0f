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
// Each line is one 64-bit word (Meta): the block number in bits 0-57 and
// the valid, dirty, loop, shared and 2-bit RRPV bits above it, so a probe
// compares one masked word per way and victim choice and eviction read
// only words the probe already loaded. Recency is a per-set LRU order of
// way indices. A set of up to 16 ways keeps it as 4-bit ranks in one
// word, so a touch is a nibble find and two shifts and the LRU way is the
// low nibble; that covers every cache of the paper's machine, at 8 bytes
// of order per set. A wider set keeps one byte per way, and a touch
// shifts those bytes. Line is not stored: it is the value Evict and
// Invalidate assemble from a word.
package cache

import (
	"fmt"
	"math/bits"
)

// Meta is one line's whole state packed in a word: the block number in
// bits 0-57, then the valid, dirty, loop and shared bits and the 2-bit
// RRPV. The simulator is trace-driven, so no data payload is stored.
// Callers read and set the dirty, loop and shared bits through the
// pointer Cache.Meta returns; the block number and valid bit change only
// through InsertAt/Evict/Invalidate/Reset.
type Meta uint64

// MaxWays is the highest associativity a cache supports: a wide set's
// recency order stores way indices in bytes, a valid-way mask in a
// snapshot is one word per set, and victim scans walk one set at a time.
const MaxWays = 64

// packedWays is the widest set whose recency order fits one word of
// 4-bit ranks.
const packedWays = 16

// MaxBlock is the largest block number a line can hold. With blocks of at
// least 64 bytes it covers every 64-bit address.
const MaxBlock = 1<<blockBits - 1

// Bit layout of a Meta word.
const (
	blockBits      = 58
	blockMask Meta = MaxBlock
	validBit  Meta = 1 << 58
	dirtyBit  Meta = 1 << 59
	loopBit   Meta = 1 << 60
	sharedBit Meta = 1 << 61
	rrpvShift      = 62
	// probeMask selects what a probe compares: the block and valid bit.
	probeMask = blockMask | validBit
)

// Dirty reports whether the block has been modified since it was filled
// or last written back.
func (m Meta) Dirty() bool { return m&dirtyBit != 0 }

// SetDirty sets or clears the dirty bit.
func (m *Meta) SetDirty(on bool) { m.set(dirtyBit, on) }

// Loop reports the paper's loop-bit: set when the block was served by an
// LLC hit and has not been written since (Section III-C, Fig. 10).
func (m Meta) Loop() bool { return m&loopBit != 0 }

// SetLoop sets or clears the loop-bit.
func (m *Meta) SetLoop(on bool) { m.set(loopBit, on) }

// Shared reports whether the line is known to be replicated in a peer
// core's private cache; the coherence model uses it to trigger write
// invalidations.
func (m Meta) Shared() bool { return m&sharedBit != 0 }

// SetShared sets or clears the shared bit.
func (m *Meta) SetShared(on bool) { m.set(sharedBit, on) }

func (m *Meta) set(bit Meta, on bool) {
	if on {
		*m |= bit
	} else {
		*m &^= bit
	}
}

func (m Meta) valid() bool { return m&validBit != 0 }

// rrpv returns the 2-bit re-reference prediction value (RRIP replacement).
func (m Meta) rrpv() uint8 { return uint8(m >> rrpvShift) }

func (m *Meta) setRRPV(v uint8) { *m = *m&^(rrpvMax<<rrpvShift) | Meta(v)<<rrpvShift }

// line unpacks the word into a Line.
func (m Meta) line() Line {
	return Line{Tag: uint64(m & blockMask), LineFlags: LineFlags{
		Valid: m&validBit != 0, Dirty: m&dirtyBit != 0, Loop: m&loopBit != 0, Shared: m&sharedBit != 0}}
}

// Line is one line's contents unpacked from its word: the value Evict and
// Invalidate return and victims are handed on as. Tag holds the full
// block number, which both identifies the block and lets a line be
// re-expanded to its address.
//
// The flags sit in an embedded struct so that Line has two fields: the
// compiler keeps a struct of at most four fields in registers. A Line
// kept on the stack is built by byte stores and copied by a 16-byte
// load, which cannot be forwarded from those stores and stalls Evict.
type Line struct {
	// Tag is the block number stored in this line.
	Tag uint64
	LineFlags
}

// LineFlags holds a Line's state bits.
type LineFlags struct {
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
	// lines holds one word per line: lines[set*ways+way].
	lines []Meta
	// The recency order of a set names the way at each rank k, rank 0
	// being LRU and ways-1 MRU. A cache of up to packedWays ways keeps
	// it in packed, where nibble k of packed[set] is the way at rank k
	// and the nibbles above rank ways-1 are zero; a wider one keeps it
	// in order, where order[set*ways+k] is the way at rank k. The other
	// slice is nil. rank and toMRU read and move either.
	packed []uint64
	order  []uint8
	// mruShift is 4*(ways-1), the shift of the MRU rank's nibble.
	mruShift uint
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
	if cfg.Ways > MaxWays {
		panic(fmt.Sprintf("cache %q: %d ways exceeds the %d-way limit", cfg.Name, cfg.Ways, MaxWays))
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
		cfg:      cfg,
		numSets:  sets,
		setMask:  uint64(sets - 1),
		ways:     cfg.Ways,
		lines:    make([]Meta, sets*cfg.Ways),
		mruShift: 4 * uint(cfg.Ways-1),
	}
	if cfg.Ways <= packedWays {
		c.packed = make([]uint64, sets)
	} else {
		c.order = make([]uint8, sets*cfg.Ways)
	}
	c.resetOrder()
	return c
}

// resetOrder restores the identity recency order in every set.
func (c *Cache) resetOrder() {
	if c.packed != nil {
		// Nibble k holds way k; the nibbles above rank ways-1 are zero.
		unused := 4 * uint(packedWays-c.ways)
		id := uint64(0xfedcba9876543210) << unused >> unused
		for s := range c.packed {
			c.packed[s] = id
		}
		return
	}
	for s := 0; s < c.numSets; s++ {
		base := s * c.ways
		for w := 0; w < c.ways; w++ {
			c.order[base+w] = uint8(w)
		}
	}
}

// rank returns the way at recency rank k of set: rank 0 is the LRU way,
// ways-1 the MRU way.
func (c *Cache) rank(set, k int) int {
	if c.packed != nil {
		return int(c.packed[set] >> (4 * uint(k)) & 0xf)
	}
	return int(c.order[set*c.ways+k])
}

// nibbles has a one in every nibble.
const nibbles = 0x1111111111111111

// rankShift returns 4k for the rank k that way holds in packed order o;
// the mask tells the compiler the shift is below 64.
// The lowest zero nibble of o^(way in every nibble) is exact: a nibble
// borrows only from a zero nibble below it, and the ranks below way's
// hold other ways. Zero nibbles above rank ways-1 lie above way's rank.
func rankShift(o uint64, way int) uint {
	x := o ^ uint64(way)*nibbles
	z := (x - nibbles) &^ x & (nibbles << 3)
	return uint(bits.TrailingZeros64(z)) & 60
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetOf maps a block number to its set index.
func (c *Cache) SetOf(block uint64) int { return int(block & c.setMask) }

// Meta returns the word of the line at (set, way) for inspection or
// mutation.
func (c *Cache) Meta(set, way int) *Meta { return &c.lines[set*c.ways+way] }

// Line unpacks the contents of the line at (set, way).
func (c *Cache) Line(set, way int) Line { return c.lines[set*c.ways+way].line() }

// IsSRAMWay reports whether the given way lies in the SRAM region of a
// hybrid cache. For single-technology caches it is always false.
func (c *Cache) IsSRAMWay(way int) bool { return way < c.cfg.SRAMWays }

// SRAMWays returns the number of SRAM ways per set (0 for single-tech).
func (c *Cache) SRAMWays() int { return c.cfg.SRAMWays }

// probeIn scans one set's words for a valid line holding block,
// returning the way index or -1.
func (c *Cache) probeIn(set int, block uint64) int {
	base := set * c.ways
	key := Meta(block) | validBit
	for w, l := range c.lines[base : base+c.ways] {
		if l&probeMask == key {
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
	// touchIn's two steps, so that toMRU's MRU check inlines here.
	c.toMRU(set, w)
	c.promote(set, w)
	return w
}

// toMRU moves (set, way) to the MRU rank of its set's recency order.
// On a packed set the check for a way already at MRU is cheap enough to
// inline; the move is not.
func (c *Cache) toMRU(set, way int) {
	if c.packed != nil && c.packed[set]>>c.mruShift == uint64(way) {
		return
	}
	c.moveToMRU(set, way)
}

// moveToMRU moves (set, way) to the MRU rank.
func (c *Cache) moveToMRU(set, way int) {
	if c.packed != nil {
		// The ranks above way's move down one; way takes rank ways-1,
		// whose nibble the shift left zero.
		o := c.packed[set]
		below := uint64(1)<<rankShift(o, way) - 1
		c.packed[set] = o&below | o>>4&^below | uint64(way)<<c.mruShift
		return
	}
	base := set * c.ways
	ord := c.order[base : base+c.ways]
	last := c.ways - 1
	if int(ord[last]) == way {
		return
	}
	for i, v := range ord {
		if int(v) == way {
			copy(ord[i:], ord[i+1:])
			ord[last] = uint8(way)
			return
		}
	}
}

// touchIn promotes (set, way) to MRU and, under RRIP, predicts an
// immediate re-reference.
func (c *Cache) touchIn(set, way int) {
	c.toMRU(set, way)
	c.promote(set, way)
}

// promote predicts an immediate re-reference of (set, way) under RRIP.
func (c *Cache) promote(set, way int) {
	if c.cfg.Replacement == ReplRRIP {
		c.lines[set*c.ways+way].setRRPV(rrpvPromote)
	}
}

// Touch promotes the line at (set, way): its recency rank becomes MRU
// and, under RRIP, its re-reference prediction becomes immediate.
func (c *Cache) Touch(set, way int) { c.touchIn(set, way) }

// Stamp returns the recency rank of (set, way): 0 is the set's LRU
// position, Ways()-1 its MRU. Exported for tests, which compare ranks of
// valid lines relatively; invalid lines' ranks are unspecified.
func (c *Cache) Stamp(set, way int) uint64 {
	for k := 0; k < c.ways; k++ {
		if c.rank(set, k) == way {
			return uint64(k)
		}
	}
	panic("cache: way missing from recency order")
}

// InsertAt places a block into (set, way), overwriting whatever was there,
// and promotes it to MRU. The caller is responsible for having evicted the
// previous occupant (see Evict). It panics on a block above MaxBlock,
// which a word cannot hold.
func (c *Cache) InsertAt(set, way int, block uint64, dirty, loop bool) {
	if block > MaxBlock {
		panic(fmt.Sprintf("cache %q: block %#x exceeds MaxBlock", c.cfg.Name, block))
	}
	l := &c.lines[set*c.ways+way]
	if !l.valid() {
		c.fills++
	}
	m := Meta(block) | validBit
	if dirty {
		m |= dirtyBit
	}
	if loop {
		m |= loopBit
	}
	if c.cfg.Replacement == ReplRRIP {
		m |= rrpvInsert << rrpvShift
	}
	*l = m
	c.toMRU(set, way)
}

// Evict invalidates (set, way) and returns the previous contents. The
// second result is false if the line was already invalid.
func (c *Cache) Evict(set, way int) (Line, bool) {
	l := &c.lines[set*c.ways+way]
	old := l.line()
	*l = 0
	if old.Valid {
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
	clear(c.lines)
	c.resetOrder()
	c.fills, c.Hits, c.Misses = 0, 0, 0
}

// State is a deep copy of a cache's contents — line words, recency
// order, and counters — detached from the live arrays. Sampled
// simulation captures States during the profiling pass and restores
// them before each measured interval, so a replay starts from the warm
// state that trace position actually had rather than whatever an
// earlier jump left behind. It keeps the recency order as the cache
// does (packed or order), so Snapshot and Restore only copy.
type State struct {
	lines        []Meta
	packed       []uint64
	order        []uint8
	sets         int
	fills        int
	hits, misses uint64
}

// Snapshot copies the cache's current contents into a detached State.
// When reuse is non-nil and geometry-compatible its backing arrays are
// recycled, so a periodic snapshotter allocates only once.
func (c *Cache) Snapshot(reuse *State) *State {
	s := reuse
	if s == nil || len(s.lines) != len(c.lines) || len(s.packed) != len(c.packed) {
		s = &State{lines: make([]Meta, len(c.lines))}
		if c.packed != nil {
			s.packed = make([]uint64, len(c.packed))
		} else {
			s.order = make([]uint8, len(c.order))
		}
	}
	copy(s.lines, c.lines)
	copy(s.packed, c.packed)
	copy(s.order, c.order)
	s.sets, s.fills, s.hits, s.misses = c.numSets, c.fills, c.Hits, c.Misses
	return s
}

// Restore overwrites the cache's contents from a snapshot taken on a
// cache with identical geometry. It panics on a size mismatch, since
// restoring across geometries is always a caller bug.
func (c *Cache) Restore(s *State) {
	if s.sets != c.numSets || len(s.lines) != len(c.lines) {
		panic(fmt.Sprintf("cache %q: restoring snapshot of different geometry", c.cfg.Name))
	}
	copy(c.lines, s.lines)
	copy(c.packed, s.packed)
	copy(c.order, s.order)
	c.fills, c.Hits, c.Misses = s.fills, s.hits, s.misses
}

// invalidIn returns the lowest invalid way in [lo, hi), or -1.
func (c *Cache) invalidIn(set, lo, hi int) int {
	base := set * c.ways
	for w, l := range c.lines[base+lo : base+hi] {
		if !l.valid() {
			return lo + w
		}
	}
	return -1
}
