package cache

// Durable-state codecs. Checkpointing serializes live caches, dueling
// monitors, and MSHR tables into the wire format; the codecs live here
// because State's arrays and the RRPV bits are unexported by design. The
// layout is pinned by the checkpoint format version one level up — no
// per-structure versioning is needed.

import (
	"fmt"
	"math/bits"

	"repro/internal/checkpoint/wire"
)

// Line flag bits in the encoded form. rrpv (2 bits) occupies bits 4-5.
const (
	lineValid  = 1 << 0
	lineDirty  = 1 << 1
	lineLoop   = 1 << 2
	lineShared = 1 << 3
	lineRRPVSh = 4
)

// encodeCacheArrays is the shared layout behind Cache.EncodeSnapshot
// and State.Encode: live caches and detached snapshots hold the same
// arrays. Checkpoints and profiles written by earlier builds must still
// load, so the layout stays pinned: a tag array, a per-set valid bitmask
// and the recency order, then each line again as its tag and a flag
// byte.
func encodeCacheArrays(e *wire.Encoder, lines []Meta, order []uint8, sets, fills int, hits, misses uint64) {
	ways := len(lines) / sets
	e.U64(uint64(len(lines)))
	for _, l := range lines {
		e.U64(uint64(l & blockMask))
	}
	e.U64(uint64(sets))
	for set := 0; set < sets; set++ {
		var vm uint64
		for w, l := range lines[set*ways : (set+1)*ways] {
			if l.valid() {
				vm |= 1 << uint(w)
			}
		}
		e.U64(vm)
	}
	e.Raw(order)
	e.U64(uint64(len(lines)))
	for _, l := range lines {
		e.U64(uint64(l & blockMask))
		var f byte
		if l.valid() {
			f |= lineValid
		}
		if l.Dirty() {
			f |= lineDirty
		}
		if l.Loop() {
			f |= lineLoop
		}
		if l.Shared() {
			f |= lineShared
		}
		f |= l.rrpv() << lineRRPVSh
		e.Byte(f)
	}
	e.I64(int64(fills))
	e.U64(hits)
	e.U64(misses)
}

// EncodeSnapshot appends the cache's full contents — tags, valid bits,
// recency order, line state, and hit/miss counters — to e.
func (c *Cache) EncodeSnapshot(e *wire.Encoder) {
	encodeCacheArrays(e, c.lines, c.order, c.numSets, c.fills, c.Hits, c.Misses)
}

// RestoreSnapshot overwrites the cache's contents from a snapshot
// written by EncodeSnapshot on a cache of identical geometry. A
// geometry mismatch or malformed input returns an error and leaves the
// cache untouched.
func (c *Cache) RestoreSnapshot(d *wire.Decoder) error {
	s, err := DecodeSnapshotState(d)
	if err != nil {
		return err
	}
	if s.sets != c.numSets || len(s.lines) != len(c.lines) {
		return fmt.Errorf("cache %q: snapshot geometry mismatch", c.cfg.Name)
	}
	c.Restore(s)
	return nil
}

// Encode appends a detached snapshot to e in the same layout as
// Cache.EncodeSnapshot.
func (s *State) Encode(e *wire.Encoder) {
	encodeCacheArrays(e, s.lines, s.order, s.sets, s.fills, s.hits, s.misses)
}

// DecodeSnapshotState reads one cache snapshot into a detached State.
// It accepts only a state some cache could have reached: a geometry New
// can build, tags no wider than MaxBlock, per-line tags and valid flags
// equal to the tag and valid arrays, each set's recency order a
// permutation of its ways, and a fill count equal to the number of valid
// bits. Anything else is an error, never a State that panics later.
func DecodeSnapshotState(d *wire.Decoder) (*State, error) {
	tags, valid, order := d.U64s(), d.U64s(), d.Raw()
	n := d.Length(2) // each line is ≥ 2 bytes (tag uvarint + flags)
	if err := d.Err(); err != nil {
		return nil, err
	}
	sets := len(valid)
	if sets == 0 || sets&(sets-1) != 0 || len(tags)%sets != 0 {
		return nil, fmt.Errorf("cache: snapshot of %d tags in %d sets", len(tags), sets)
	}
	ways := len(tags) / sets
	if ways < 1 || ways > 64 || len(order) != len(tags) || n != len(tags) {
		return nil, fmt.Errorf("cache: snapshot arrays disagree: %d tags, %d order bytes, %d lines in %d sets",
			len(tags), len(order), n, sets)
	}
	s := &State{lines: make([]Meta, n), order: order, sets: sets}
	for i := range s.lines {
		tag, f := d.U64(), d.Byte()
		if err := d.Err(); err != nil {
			return nil, err
		}
		isValid := valid[i/ways]&(1<<uint(i%ways)) != 0
		if tag != tags[i] || (f&lineValid != 0) != isValid {
			return nil, fmt.Errorf("cache: snapshot line %d disagrees with the tag and valid arrays", i)
		}
		if tag > MaxBlock {
			return nil, fmt.Errorf("cache: snapshot line %d has tag %#x wider than %d bits", i, tag, blockBits)
		}
		if f>>lineRRPVSh > rrpvMax {
			return nil, fmt.Errorf("cache: snapshot line %d has flag byte %#x", i, f)
		}
		m := Meta(tag) | Meta(f>>lineRRPVSh)<<rrpvShift
		if isValid {
			m |= validBit
		}
		m.SetDirty(f&lineDirty != 0)
		m.SetLoop(f&lineLoop != 0)
		m.SetShared(f&lineShared != 0)
		s.lines[i] = m
	}
	s.fills = int(d.I64())
	s.hits = d.U64()
	s.misses = d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := s.checkSets(valid, ways); err != nil {
		return nil, err
	}
	return s, nil
}

// checkSets verifies the per-set invariants DecodeSnapshotState promises:
// no valid bit beyond the last way, each recency order a permutation of
// the set's ways, and fills equal to the number of valid bits.
func (s *State) checkSets(valid []uint64, ways int) error {
	fills := 0
	for set, vm := range valid {
		if vm>>uint(ways) != 0 {
			return fmt.Errorf("cache: snapshot set %d has valid bits beyond way %d", set, ways-1)
		}
		fills += bits.OnesCount64(vm)
		var seen uint64
		for _, w := range s.order[set*ways : (set+1)*ways] {
			if int(w) >= ways || seen&(1<<w) != 0 {
				return fmt.Errorf("cache: snapshot set %d recency order is not a permutation of its %d ways", set, ways)
			}
			seen |= 1 << w
		}
	}
	if fills != s.fills {
		return fmt.Errorf("cache: snapshot fill count %d disagrees with its %d valid bits", s.fills, fills)
	}
	return nil
}

// DuelState is the mutable portion of a set-dueling monitor, exported
// so checkpoints can round-trip it (PeriodCycles is configuration,
// rebuilt from the controller constructor).
type DuelState struct {
	CostA, CostB float64
	NextFlip     uint64
	Winner       Role
}

// State returns the duel's current mutable state.
func (d *Duel) State() DuelState {
	return DuelState{CostA: d.costA, CostB: d.costB, NextFlip: d.nextFlip, Winner: d.winner}
}

// SetState overwrites the duel's mutable state.
func (d *Duel) SetState(s DuelState) {
	d.costA, d.costB, d.nextFlip, d.winner = s.CostA, s.CostB, s.NextFlip, s.Winner
}

// EncodeState appends the duel's mutable state to e.
func (d *Duel) EncodeState(e *wire.Encoder) {
	e.F64(d.costA)
	e.F64(d.costB)
	e.U64(d.nextFlip)
	e.Byte(byte(d.winner))
}

// DecodeState restores the duel's mutable state from e.
func (d *Duel) DecodeState(dec *wire.Decoder) error {
	s := DuelState{
		CostA:    dec.F64(),
		CostB:    dec.F64(),
		NextFlip: dec.U64(),
		Winner:   Role(dec.Byte()),
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if s.Winner != LeaderA && s.Winner != LeaderB {
		return fmt.Errorf("cache: duel winner %d out of range", s.Winner)
	}
	d.SetState(s)
	return nil
}

// EncodeState appends the MSHR table's outstanding-fill state to e.
func (t *MSHR) EncodeState(e *wire.Encoder) {
	e.U64s(t.blocks)
	e.U64s(t.readyAt)
	e.I64(int64(t.pending))
}

// DecodeState restores the table from e. The register count must match
// the table's configured size.
func (t *MSHR) DecodeState(d *wire.Decoder) error {
	blocks := d.U64s()
	readyAt := d.U64s()
	pending := int(d.I64())
	if err := d.Err(); err != nil {
		return err
	}
	if len(blocks) != len(t.blocks) || len(readyAt) != len(t.readyAt) {
		return fmt.Errorf("cache: MSHR size mismatch (%d regs, snapshot has %d)", len(t.blocks), len(blocks))
	}
	if pending < -1 || pending >= len(t.blocks) {
		return fmt.Errorf("cache: MSHR pending slot %d out of range", pending)
	}
	copy(t.blocks, blocks)
	copy(t.readyAt, readyAt)
	t.pending = pending
	return nil
}
