package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func rripCache() *Cache {
	return New(Config{Name: "r", SizeBytes: 4096, Ways: 4, BlockBytes: 64, Replacement: ReplRRIP})
}

func TestReplacementString(t *testing.T) {
	if ReplLRU.String() != "LRU" || ReplRRIP.String() != "RRIP" {
		t.Fatal("replacement names drifted")
	}
}

func TestRRIPInsertionValue(t *testing.T) {
	c := rripCache()
	c.InsertAt(0, 0, 0, false, false)
	if c.RRPV(0, 0) != rrpvInsert {
		t.Fatalf("inserted RRPV = %d, want %d", c.RRPV(0, 0), rrpvInsert)
	}
	c.Touch(0, 0)
	if c.RRPV(0, 0) != rrpvPromote {
		t.Fatalf("touched RRPV = %d, want %d", c.RRPV(0, 0), rrpvPromote)
	}
}

func TestRRIPVictimPrefersInvalidThenDistant(t *testing.T) {
	c := rripCache()
	c.InsertAt(0, 0, 0, false, false)
	if v := c.Victim(0); v == 0 {
		t.Fatal("RRIP victim picked the only valid line over invalid ways")
	}
	// Fill the set; promote all but way 2, then age: way 2 must go first.
	for w := 0; w < 4; w++ {
		c.InsertAt(0, w, uint64(w*16), false, false)
	}
	c.Touch(0, 0)
	c.Touch(0, 1)
	c.Touch(0, 3)
	if v := c.Victim(0); v != 2 {
		t.Fatalf("RRIP victim = way %d, want 2 (only non-promoted line)", v)
	}
}

func TestRRIPAgeingTerminates(t *testing.T) {
	c := rripCache()
	for w := 0; w < 4; w++ {
		c.InsertAt(0, w, uint64(w*16), false, false)
		c.Touch(0, w) // all at RRPV 0
	}
	v := c.Victim(0) // must age everyone up to max and pick one
	if v < 0 || v > 3 {
		t.Fatalf("victim way %d out of range", v)
	}
	if c.RRPV(0, (v+1)%4) == 0 {
		t.Fatal("ageing did not advance other lines")
	}
}

func TestRRIPLoopAwarePrefersNonLoop(t *testing.T) {
	c := rripCache()
	// way 0: loop-block at distant RRPV; way 1: non-loop at distant RRPV.
	c.InsertAt(0, 0, 0, false, true)
	c.InsertAt(0, 1, 16, false, false)
	c.InsertAt(0, 2, 32, false, true)
	c.InsertAt(0, 3, 48, false, true)
	if v := c.LoopVictim(0); v != 1 {
		t.Fatalf("loop-aware RRIP victim = way %d, want 1 (non-loop)", v)
	}
	// All loop-blocks: fall back to a distant loop-block.
	c.Meta(0, 1).Loop = true
	v := c.LoopVictim(0)
	if v < 0 || v > 3 {
		t.Fatalf("all-loop victim = %d", v)
	}
}

func TestRRIPLoopAwareProtectsPromotedLoopBlocks(t *testing.T) {
	c := rripCache()
	for w := 0; w < 4; w++ {
		c.InsertAt(0, w, uint64(w*16), false, w != 3) // way 3 is non-loop
	}
	// Promote the loop blocks to immediate; leave the non-loop block
	// at the insertion RRPV.
	for w := 0; w < 3; w++ {
		c.Touch(0, w)
	}
	if v := c.LoopVictim(0); v != 3 {
		t.Fatalf("victim = way %d, want the non-loop way 3", v)
	}
}

func TestLRUCacheIgnoresRRPV(t *testing.T) {
	c := small() // LRU config
	c.InsertAt(0, 0, 0, false, false)
	if c.RRPV(0, 0) != 0 {
		t.Fatal("LRU cache set an RRPV")
	}
	// Generic dispatchers must agree with the LRU primitives.
	for w := 0; w < 4; w++ {
		c.InsertAt(0, w, uint64(w*16), false, w%2 == 0)
	}
	if c.Victim(0) != c.LRUVictim(0) {
		t.Fatal("Victim != LRUVictim for an LRU cache")
	}
	if c.LoopVictim(0) != c.LoopAwareVictim(0) {
		t.Fatal("LoopVictim != LoopAwareVictim for an LRU cache")
	}
}

func TestVictimInRangeRRIPBounds(t *testing.T) {
	c := New(Config{Name: "h", SizeBytes: 16 * 64 * 4, Ways: 16, BlockBytes: 64,
		SRAMWays: 4, Replacement: ReplRRIP})
	for w := 0; w < 16; w++ {
		c.InsertAt(0, w, uint64(w*c.NumSets()), false, w%2 == 0)
	}
	if v := c.VictimInRange(0, 0, 4); v < 0 || v >= 4 {
		t.Fatalf("RRIP SRAM-region victim out of range: %d", v)
	}
	if v := c.LoopVictimInRange(0, 4, 16); v < 4 || v >= 16 {
		t.Fatalf("RRIP STT-region victim out of range: %d", v)
	}
}

func TestRRIPEmptyRangePanics(t *testing.T) {
	c := rripCache()
	for _, f := range []func(){
		func() { c.VictimInRange(0, 2, 2) },
		func() { c.LoopVictimInRange(0, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for empty RRIP range")
				}
			}()
			f()
		}()
	}
}

// Property: the RRIP victim is always a valid way index and, when invalid
// ways exist, is one of them.
func TestPropertyRRIPVictimSound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		c := rripCache()
		for i := 0; i < 200; i++ {
			b := rng.Uint64() % 512
			set := c.SetOf(b)
			if c.Lookup(b) < 0 {
				w := c.Victim(set)
				if w < 0 || w >= c.Ways() {
					return false
				}
				if inv := c.InvalidWayIn(set, 0, c.Ways()); inv >= 0 && c.Line(set, w).Valid {
					return false
				}
				c.InsertAt(set, w, b, rng.IntN(2) == 0, rng.IntN(2) == 0)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: loop-aware RRIP never evicts a loop-block while a non-loop
// block exists in the searched range.
func TestPropertyRRIPLoopProtection(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		c := rripCache()
		set := int(seed % 16)
		nonLoop := 0
		for w := 0; w < 4; w++ {
			loop := rng.IntN(2) == 0
			if !loop {
				nonLoop++
			}
			c.InsertAt(set, w, uint64(w*16+set), false, loop)
			if rng.IntN(2) == 0 {
				c.Touch(set, w)
			}
		}
		v := c.LoopVictim(set)
		if nonLoop > 0 && c.Line(set, v).Loop {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
