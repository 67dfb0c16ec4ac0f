package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint/wire"
)

// wireCache builds a 4-set × 4-way cache and drives it through a fixed
// sequence of misses, fills (some dirty, some loop-blocks), hits that
// dirty a line, lines marked shared, and two invalidations, so every
// flag bit and both valid states appear in its snapshot.
func wireCache(r Replacement) *Cache {
	c := New(Config{Name: "w", SizeBytes: 1024, Ways: 4, BlockBytes: 64, Replacement: r})
	for i := 0; i < 48; i++ {
		b := uint64(i*5%19 + 3)
		set := c.SetOf(b)
		if w := c.Lookup(b); w >= 0 {
			if i%3 == 0 {
				c.Meta(set, w).SetDirty(true)
			}
			continue
		}
		var w int
		if i%2 == 0 {
			w = c.Victim(set)
		} else {
			w = c.LoopVictim(set)
		}
		c.Evict(set, w)
		c.InsertAt(set, w, b, i%4 == 1, i%5 == 2)
		if i%3 == 2 {
			c.Meta(set, w).SetShared(true)
		}
	}
	c.Invalidate(13)
	c.Invalidate(6)
	return c
}

// TestSnapshotWireFormat pins the cache snapshot encoding byte for byte:
// checkpoints and sampling profiles written by earlier builds carry these
// bytes and must still load, and their payload versions do not change.
func TestSnapshotWireFormat(t *testing.T) {
	for _, tc := range []struct {
		r    Replacement
		want string
	}{
		{ReplLRU, "100c10080409110005120e0a000b030713040f0b070f1001000203010200030300010200020103100c0f100308010405090111070000050512010e010a0300000b0d0309070913031c0a26"},
		{ReplRRIP, "100c10080409110005120e0a000b130703040f0b070f1001000203010200030300010200020301100c0f102308210425092111370000050512010e010a0300000b2d1307072903291c0b25"},
	} {
		c := wireCache(tc.r)
		var live, detached wire.Encoder
		c.EncodeSnapshot(&live)
		c.Snapshot(nil).Encode(&detached)
		if got := hex.EncodeToString(live.Bytes()); got != tc.want {
			t.Errorf("%v EncodeSnapshot:\ngot  %s\nwant %s", tc.r, got, tc.want)
		}
		if got := hex.EncodeToString(detached.Bytes()); got != tc.want {
			t.Errorf("%v Snapshot(nil).Encode:\ngot  %s\nwant %s", tc.r, got, tc.want)
		}

		restored := New(c.Config())
		if err := restored.RestoreSnapshot(wire.NewDecoder(live.Bytes())); err != nil {
			t.Fatalf("%v: restoring the pinned snapshot: %v", tc.r, err)
		}
		var again wire.Encoder
		restored.EncodeSnapshot(&again)
		if got := hex.EncodeToString(again.Bytes()); got != tc.want {
			t.Errorf("%v: restore then encode changed the bytes:\ngot  %s\nwant %s", tc.r, got, tc.want)
		}
	}
}

// snapshotBytes returns the wire form of c.
func snapshotBytes(c *Cache) []byte {
	var e wire.Encoder
	c.EncodeSnapshot(&e)
	return append([]byte(nil), e.Bytes()...)
}

// TestDecodeSnapshotStateRejectsInconsistent corrupts single fields of a
// valid snapshot, as a payload whose CRC was computed over bad bytes
// would carry them, and requires each to be refused with the cache left
// untouched: an out-of-range recency byte, for one, would otherwise
// panic on the first eviction from a full set.
func TestDecodeSnapshotStateRejectsInconsistent(t *testing.T) {
	c := wireCache(ReplRRIP)
	good := snapshotBytes(c)
	if _, err := DecodeSnapshotState(wire.NewDecoder(good)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	// Offsets in the pinned layout, where every count and tag fits one
	// byte: the 16 tags, the 4 valid words and the 16 order bytes each
	// follow a count byte, then a line count and (tag, flags) pairs.
	const (
		tagsOff  = 1
		validOff = tagsOff + 16 + 1
		orderOff = validOff + 4 + 1
		linesOff = orderOff + 16 + 1
	)
	if good[linesOff+1]&lineValid == 0 {
		t.Fatal("line 0 of the pinned snapshot is expected to be valid")
	}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
		want   string // substring of the error
	}{
		// Payload tag of line 0 no longer equals tags[0].
		{"tag mismatch", func(b []byte) []byte { b[linesOff] ^= 1; return b }, "disagrees with the tag and valid arrays"},
		// Line 0's valid flag cleared while its valid bit stays set.
		{"valid mismatch", func(b []byte) []byte { b[linesOff+1] &^= lineValid; return b }, "disagrees with the tag and valid arrays"},
		// Line 0's tag, in both places, one past what a line's block
		// field holds.
		{"tag too wide", func(b []byte) []byte {
			wide := binary.AppendUvarint(nil, MaxBlock+1)
			b = slices.Replace(b, linesOff, linesOff+1, wide...)
			return slices.Replace(b, tagsOff, tagsOff+1, wide...)
		}, "wider than 58 bits"},
		// Flag byte with bits above the 2-bit RRPV.
		{"rrpv range", func(b []byte) []byte { b[linesOff+1] |= 0xc0; return b }, "flag byte"},
		// Set 0's order names way 4 of a 4-way set.
		{"order out of range", func(b []byte) []byte { b[orderOff] = 4; return b }, "not a permutation"},
		// Set 0's order repeats a way.
		{"order repeats", func(b []byte) []byte { b[orderOff+1] = b[orderOff]; return b }, "not a permutation"},
		// Set 0 claims a fifth way.
		{"valid beyond ways", func(b []byte) []byte { b[validOff] |= 0x10; return b }, "valid bits beyond way 3"},
		// Fill count (the zigzag varint after the lines) one too high.
		{"fills", func(b []byte) []byte { b[len(b)-3] += 2; return b }, "fill count"},
	} {
		bad := tc.mutate(append([]byte(nil), good...))
		_, err := DecodeSnapshotState(wire.NewDecoder(bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one containing %q", tc.name, err, tc.want)
		}
		before := snapshotBytes(c)
		if err := c.RestoreSnapshot(wire.NewDecoder(bad)); err == nil {
			t.Errorf("%s: corrupted snapshot restored without error", tc.name)
		}
		if !bytes.Equal(snapshotBytes(c), before) {
			t.Errorf("%s: failed restore modified the cache", tc.name)
		}
	}
}

// FuzzDecodeSnapshotState feeds arbitrary bytes to the snapshot decoder.
// Decoding must never panic, and any state it accepts must restore into
// a cache of the same geometry and survive the operations the simulator
// performs on it.
func FuzzDecodeSnapshotState(f *testing.F) {
	f.Add(snapshotBytes(wireCache(ReplLRU)))
	f.Add(snapshotBytes(wireCache(ReplRRIP)))
	f.Add(snapshotBytes(New(Config{Name: "one", SizeBytes: 64, Ways: 1, BlockBytes: 64})))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshotState(wire.NewDecoder(data))
		if err != nil {
			return
		}
		sets := s.sets
		ways := len(s.lines) / sets
		for _, r := range []Replacement{ReplLRU, ReplRRIP} {
			c := New(Config{Name: "f", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64,
				SRAMWays: ways / 2, Replacement: r})
			c.Restore(s)
			exercise(t, c)
		}
	})
}

// exercise runs lookups, victim selection, fills and evictions over
// every set of c, checking the fill counter stays consistent.
func exercise(t *testing.T, c *Cache) {
	for set := 0; set < c.NumSets(); set++ {
		for k := 0; k < 2*c.Ways(); k++ {
			block := uint64(set + k*c.NumSets())
			if c.Lookup(block) >= 0 {
				continue
			}
			w := c.Victim(set)
			if k%2 == 1 {
				w = c.LoopVictim(set)
			}
			if sram := c.SRAMWays(); sram > 0 && k%3 == 2 {
				w = c.LoopVictimInRange(set, sram, c.Ways())
			}
			c.Evict(set, w)
			c.InsertAt(set, w, block, k%2 == 0, k%3 == 0)
			c.MRUWhere(set, 0, c.Ways(), func(m *Meta) bool { return m.Loop() })
		}
	}
	fills := 0
	for set := 0; set < c.NumSets(); set++ {
		for w := 0; w < c.Ways(); w++ {
			if c.Line(set, w).Valid {
				fills++
			}
		}
	}
	if fills != c.FillCount() {
		t.Fatalf("fill counter %d, valid lines %d", c.FillCount(), fills)
	}
}
