package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 4096, Ways: 4, BlockBytes: 64}) // 16 sets
}

func TestGeometry(t *testing.T) {
	c := small()
	if c.NumSets() != 16 || c.Ways() != 4 {
		t.Fatalf("geometry: sets=%d ways=%d", c.NumSets(), c.Ways())
	}
	// L3 from Table II: 8MB, 16-way, 64B blocks → 8192 sets.
	l3 := New(Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, BlockBytes: 64})
	if l3.NumSets() != 8192 {
		t.Fatalf("L3 sets = %d, want 8192", l3.NumSets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 4, BlockBytes: 64},
		{Name: "nonpow2", SizeBytes: 3 * 64 * 4, Ways: 4, BlockBytes: 64},
		{Name: "ways", SizeBytes: 4096, Ways: 0, BlockBytes: 64},
		{Name: "sram", SizeBytes: 4096, Ways: 4, BlockBytes: 64, SRAMWays: 5},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %q: expected panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestLookupInsertInvalidate(t *testing.T) {
	c := small()
	if c.Lookup(100) >= 0 {
		t.Fatal("hit in empty cache")
	}
	set := c.SetOf(100)
	w := c.LRUVictim(set)
	c.InsertAt(set, w, 100, false, false)
	if c.Lookup(100) < 0 {
		t.Fatal("miss after insert")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters: hits=%d misses=%d", c.Hits, c.Misses)
	}
	if _, ok := c.Invalidate(100); !ok {
		t.Fatal("invalidate missed")
	}
	if c.Probe(100) >= 0 {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := c.Invalidate(100); ok {
		t.Fatal("double invalidate succeeded")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	c := small()
	set := 3
	// Fill the set with 4 blocks; block addresses must map to set 3.
	blocks := []uint64{3, 19, 35, 51}
	for _, b := range blocks {
		if c.SetOf(b) != set {
			t.Fatalf("block %d maps to set %d", b, c.SetOf(b))
		}
		c.InsertAt(set, c.LRUVictim(set), b, false, false)
	}
	// Touch everything except block 19; it becomes the LRU victim.
	c.Lookup(3)
	c.Lookup(35)
	c.Lookup(51)
	v := c.LRUVictim(set)
	if got := c.Line(set, v).Tag; got != 19 {
		t.Fatalf("LRU victim = block %d, want 19", got)
	}
}

func TestLoopAwareVictimPriority(t *testing.T) {
	c := small()
	set := 0
	// way 0: loop-block (oldest), way 1: non-loop, way 2: loop, way 3: non-loop (newest).
	c.InsertAt(set, 0, 0, false, true)
	c.InsertAt(set, 1, 16, false, false)
	c.InsertAt(set, 2, 32, false, true)
	c.InsertAt(set, 3, 48, true, false)
	// LRU non-loop-block is way 1 even though way 0 is older overall.
	if v := c.LoopAwareVictim(set); v != 1 {
		t.Fatalf("loop-aware victim = way %d, want 1 (LRU non-loop)", v)
	}
	// Plain LRU would pick way 0.
	if v := c.LRUVictim(set); v != 0 {
		t.Fatalf("LRU victim = way %d, want 0", v)
	}
	// With only loop-blocks left, the LRU loop-block is evicted.
	c.Meta(set, 1).Loop = true
	c.Meta(set, 3).Loop = true
	if v := c.LoopAwareVictim(set); v != 0 {
		t.Fatalf("all-loop victim = way %d, want 0", v)
	}
}

func TestLoopAwareVictimPrefersInvalid(t *testing.T) {
	c := small()
	c.InsertAt(0, 0, 0, false, false)
	c.InsertAt(0, 2, 32, false, false)
	if v := c.LoopAwareVictim(0); v != 1 && v != 3 {
		t.Fatalf("victim = way %d, want an invalid way", v)
	}
	if v := c.LRUVictim(0); v != 1 && v != 3 {
		t.Fatalf("LRU victim = way %d, want an invalid way", v)
	}
}

func TestVictimInRange(t *testing.T) {
	c := New(Config{Name: "h", SizeBytes: 16 * 64 * 4, Ways: 16, BlockBytes: 64, SRAMWays: 4})
	set := 0
	for w := 0; w < 16; w++ {
		c.InsertAt(set, w, uint64(w*c.NumSets()), false, w%2 == 0)
	}
	if v := c.VictimIn(set, 0, 4); v < 0 || v >= 4 {
		t.Fatalf("SRAM-region victim out of range: %d", v)
	}
	if v := c.LoopAwareVictimIn(set, 4, 16); v < 4 || v >= 16 {
		t.Fatalf("STT-region victim out of range: %d", v)
	}
	if !c.IsSRAMWay(3) || c.IsSRAMWay(4) {
		t.Fatal("IsSRAMWay boundary wrong")
	}
}

func TestVictimEmptyRangePanics(t *testing.T) {
	c := small()
	for _, f := range []func(){
		func() { c.VictimIn(0, 2, 2) },
		func() { c.LoopAwareVictimIn(0, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for empty range")
				}
			}()
			f()
		}()
	}
}

func TestMRUWhere(t *testing.T) {
	c := small()
	c.InsertAt(0, 0, 0, false, true)
	c.InsertAt(0, 1, 16, false, false)
	c.InsertAt(0, 2, 32, false, true) // most recent loop-block
	if w := c.MRUWhere(0, 0, 4, func(l *Meta) bool { return l.Loop }); w != 2 {
		t.Fatalf("MRU loop-block way = %d, want 2", w)
	}
	if w := c.MRUWhere(0, 0, 4, func(l *Meta) bool { return l.Dirty }); w != -1 {
		t.Fatalf("MRUWhere(no match) = %d, want -1", w)
	}
}

func TestInvalidWayIn(t *testing.T) {
	c := small()
	if w := c.InvalidWayIn(0, 0, 4); w != 0 {
		t.Fatalf("first invalid way = %d", w)
	}
	for w := 0; w < 4; w++ {
		c.InsertAt(0, w, uint64(w*16), false, false)
	}
	if w := c.InvalidWayIn(0, 0, 4); w != -1 {
		t.Fatalf("full set reported invalid way %d", w)
	}
}

func TestEvictReturnsContents(t *testing.T) {
	c := small()
	c.InsertAt(5, 2, 5+16, true, true)
	l, ok := c.Evict(5, 2)
	if !ok || l.Tag != 21 || !l.Dirty || !l.Loop {
		t.Fatalf("evicted line = %+v ok=%v", l, ok)
	}
	if _, ok := c.Evict(5, 2); ok {
		t.Fatal("evicting empty way reported contents")
	}
}

func TestReset(t *testing.T) {
	c := small()
	c.InsertAt(0, 0, 0, true, false)
	c.Lookup(0)
	c.Lookup(999)
	c.Reset()
	if c.FillCount() != 0 || c.Hits != 0 || c.Misses != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: after any sequence of insert-via-victim operations, the number
// of valid lines never exceeds capacity, and every inserted block that was
// not subsequently evicted is findable in its home set.
func TestPropertyOccupancyBounded(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		c := small()
		for i := 0; i < int(n%2048); i++ {
			b := rng.Uint64() % 4096
			if c.Lookup(b) < 0 {
				set := c.SetOf(b)
				c.InsertAt(set, c.LRUVictim(set), b, rng.IntN(2) == 0, rng.IntN(2) == 0)
			}
		}
		return c.FillCount() <= c.NumSets()*c.Ways()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a probe never reports a way whose tag differs from the block,
// and insert-then-probe always round-trips.
func TestPropertyProbeConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		c := small()
		for i := 0; i < 500; i++ {
			b := rng.Uint64() % 1024
			set := c.SetOf(b)
			c.InsertAt(set, c.LRUVictim(set), b, false, false)
			w := c.Probe(b)
			if w < 0 || c.Line(set, w).Tag != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU victim selection in a full set always picks the way with
// the minimum recency stamp.
func TestPropertyLRUMinStamp(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		c := small()
		set := int(seed % 16)
		for w := 0; w < 4; w++ {
			c.InsertAt(set, w, uint64(w*16+set), false, false)
		}
		for i := 0; i < 20; i++ {
			c.Touch(set, rng.IntN(4))
		}
		v := c.LRUVictim(set)
		for w := 0; w < 4; w++ {
			if c.Stamp(set, w) < c.Stamp(set, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDuelRoles(t *testing.T) {
	d := NewDuel()
	if d.RoleOf(0) != LeaderA || d.RoleOf(1) != LeaderB || d.RoleOf(2) != Follower {
		t.Fatal("role assignment wrong")
	}
	if d.RoleOf(64) != LeaderA || d.RoleOf(65) != LeaderB {
		t.Fatal("role assignment not periodic with stride")
	}
	// Paper: 1/64 of sets per leader group.
	a := 0
	for s := 0; s < 8192; s++ {
		if d.RoleOf(s) == LeaderA {
			a++
		}
	}
	if a != 8192/64 {
		t.Fatalf("LeaderA count = %d, want %d", a, 8192/64)
	}
}

func TestDuelElection(t *testing.T) {
	d := NewDuel()
	d.PeriodCycles = 1000
	// Policy A suffers more misses in the first window.
	d.AddCost(LeaderA, 10)
	d.AddCost(LeaderB, 3)
	d.AddCost(Follower, 99) // ignored
	d.Observe(1000)
	if d.Winner() != LeaderB {
		t.Fatalf("winner = %v, want LeaderB", d.Winner())
	}
	if d.PolicyOf(2) != LeaderB {
		t.Fatal("follower did not adopt winner")
	}
	if d.PolicyOf(0) != LeaderA || d.PolicyOf(1) != LeaderB {
		t.Fatal("leaders must keep their own policy")
	}
	// Next window: B degrades; ties go to A.
	d.AddCost(LeaderA, 5)
	d.AddCost(LeaderB, 5)
	d.Observe(2000)
	if d.Winner() != LeaderA {
		t.Fatalf("winner = %v, want LeaderA on tie", d.Winner())
	}
}

func TestDuelObserveMidWindowNoop(t *testing.T) {
	d := NewDuel()
	d.PeriodCycles = 1000
	d.AddCost(LeaderA, 1) // A costs more this window
	d.Observe(500)        // mid-window: no election
	if d.Winner() != LeaderA {
		t.Fatal("mid-window observe changed winner")
	}
	d.Observe(5000) // multiple windows elapsed at once
	if d.Winner() != LeaderB {
		t.Fatal("late observe did not elect the cheaper policy")
	}
	// nextFlip must have advanced beyond the observed cycle, so this new
	// cost is not consumed until the next window.
	d.AddCost(LeaderB, 1)
	d.Observe(5001)
	if d.Winner() != LeaderB {
		t.Fatal("window did not advance past observed cycle")
	}
}
