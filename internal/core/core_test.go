package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/energy"
)

// testCtx builds a tiny L3 (8 sets x 4 ways unless hybrid) with the
// STT-RAM energy model and a fresh metrics block.
func testCtx(sramWays int) *Ctx {
	ways := 4
	if sramWays > 0 {
		ways = 8
	}
	l3 := cache.New(cache.Config{
		Name: "L3", SizeBytes: 8 * ways * 64, Ways: ways, BlockBytes: 64, SRAMWays: sramWays,
	})
	var m *energy.Meter
	if sramWays > 0 {
		m = energy.Hybrid(3e9, energy.SRAM(), energy.STTRAM(), 2<<20, 6<<20)
	} else {
		m = energy.SingleTech(3e9, energy.STTRAM(), 8<<20)
	}
	return &Ctx{
		L3:        l3,
		E:         m,
		Met:       &Metrics{},
		Banks:     NewBanks(1),
		ReadCyc:   [2]uint64{8, 8},
		WriteCyc:  [2]uint64{8, 33},
		MemCycles: 160,
	}
}

func cleanLine(block uint64) cache.Line {
	return cache.Line{Tag: block, LineFlags: cache.LineFlags{Valid: true}}
}
func dirtyLine(block uint64) cache.Line {
	return cache.Line{Tag: block, LineFlags: cache.LineFlags{Valid: true, Dirty: true}}
}
func loopLine(block uint64) cache.Line {
	return cache.Line{Tag: block, LineFlags: cache.LineFlags{Valid: true, Loop: true}}
}

// --- Non-inclusive (Fig. 1b) ---

func TestNonInclusiveFillsOnMiss(t *testing.T) {
	x, c := testCtx(0), NewNonInclusive()
	r := c.Fetch(x, 100)
	if r.Hit {
		t.Fatal("hit in empty L3")
	}
	if x.L3.Probe(100) < 0 {
		t.Fatal("non-inclusive miss did not data-fill the L3")
	}
	if x.Met.WritesFill != 1 || x.Met.MemReads != 1 {
		t.Fatalf("fill accounting: %+v", x.Met)
	}
	if r.Lat != x.MemCycles {
		t.Fatalf("miss latency = %d, want %d", r.Lat, x.MemCycles)
	}
}

func TestNonInclusiveHitKeepsDuplicate(t *testing.T) {
	x, c := testCtx(0), NewNonInclusive()
	c.Fetch(x, 100)
	r := c.Fetch(x, 100)
	if !r.Hit || r.Loop {
		t.Fatalf("second fetch: %+v", r)
	}
	if x.L3.Probe(100) < 0 {
		t.Fatal("hit removed the duplicate copy")
	}
	if x.Met.L3Hits != 1 || x.Met.L3Misses != 1 {
		t.Fatalf("hit/miss counts: %+v", x.Met)
	}
}

func TestNonInclusiveCleanVictimDropped(t *testing.T) {
	x, c := testCtx(0), NewNonInclusive()
	writes := x.Met.WritesToLLC()
	c.EvictL2(x, cleanLine(5))
	if x.Met.WritesToLLC() != writes {
		t.Fatal("clean victim caused an LLC write under non-inclusion")
	}
	if x.L3.Probe(5) >= 0 {
		t.Fatal("clean victim was inserted under non-inclusion")
	}
}

func TestNonInclusiveDirtyVictimUpdatesInPlace(t *testing.T) {
	x, c := testCtx(0), NewNonInclusive()
	c.Fetch(x, 100) // fill
	c.EvictL2(x, dirtyLine(100))
	if x.Met.WritesDirty != 1 {
		t.Fatalf("dirty writes = %d", x.Met.WritesDirty)
	}
	w := x.L3.Probe(100)
	if w < 0 || !x.L3.Line(x.L3.SetOf(100), w).Dirty {
		t.Fatal("in-place dirty update missing")
	}
	// A dirty victim with no duplicate is write-allocated.
	c.EvictL2(x, dirtyLine(200))
	if x.L3.Probe(200) < 0 || x.Met.WritesDirty != 2 {
		t.Fatal("dirty victim without duplicate not allocated")
	}
}

// --- Exclusive (Fig. 1c) ---

func TestExclusiveNoFillOnMiss(t *testing.T) {
	x, c := testCtx(0), NewExclusive()
	r := c.Fetch(x, 100)
	if r.Hit || x.L3.Probe(100) >= 0 {
		t.Fatal("exclusive miss must bypass the L3")
	}
	if x.Met.WritesToLLC() != 0 {
		t.Fatal("exclusive miss wrote to the L3")
	}
}

func TestExclusiveInvalidatesOnHit(t *testing.T) {
	x, c := testCtx(0), NewExclusive()
	c.EvictL2(x, cleanLine(100)) // install via victim path
	r := c.Fetch(x, 100)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	if x.L3.Probe(100) >= 0 {
		t.Fatal("exclusive hit did not invalidate the L3 copy")
	}
}

func TestExclusiveInsertsAllVictims(t *testing.T) {
	x, c := testCtx(0), NewExclusive()
	c.EvictL2(x, cleanLine(1))
	c.EvictL2(x, dirtyLine(2))
	if x.Met.WritesClean != 1 || x.Met.WritesDirty != 1 {
		t.Fatalf("victim writes: %+v", x.Met)
	}
	if x.L3.Probe(1) < 0 || x.L3.Probe(2) < 0 {
		t.Fatal("victims not installed")
	}
}

// TestRedundantCleanInsertionScenario replays the paper's Figure 3: clean
// blocks invalidated on hit are redundantly re-inserted under exclusion
// but not under non-inclusion or LAP.
func TestRedundantCleanInsertionScenario(t *testing.T) {
	run := func(c Controller) (*Ctx, *Profiler) {
		x := testCtx(0)
		x.Prof = NewProfiler()
		// First life: block fetched from memory, evicted clean.
		x.Prof.OnFetch(100, false)
		c.Fetch(x, 100)
		x.Prof.OnL2Evict(100, false)
		c.EvictL2(x, cleanLine(100))
		// Second life: refetched (L3 hit under all policies here if
		// present), evicted clean again.
		c.Fetch(x, 100)
		x.Prof.OnL2Evict(100, false)
		c.EvictL2(x, cleanLine(100))
		return x, x.Prof
	}
	if x, p := run(NewExclusive()); p.RedundantCleanInserts != 1 {
		t.Fatalf("exclusive: redundant clean inserts = %d (writes %d), want 1",
			p.RedundantCleanInserts, x.Met.WritesToLLC())
	}
	if _, p := run(NewNonInclusive()); p.RedundantCleanInserts != 0 {
		t.Fatalf("non-inclusive: redundant clean inserts = %d, want 0", p.RedundantCleanInserts)
	}
	if x, p := run(NewLAP()); p.RedundantCleanInserts != 0 || x.Met.TagOnlyUpdates == 0 {
		t.Fatalf("LAP: redundant=%d tagOnly=%d; want 0 and >0",
			p.RedundantCleanInserts, x.Met.TagOnlyUpdates)
	}
}

// --- Inclusive (Fig. 1a) ---

func TestInclusiveBackInvalidates(t *testing.T) {
	x, c := testCtx(0), NewInclusive()
	var killed []uint64
	x.BackInvalidate = func(b uint64) bool { killed = append(killed, b); return false }
	// Fill one set beyond capacity: set 0 holds blocks 0,8,16,24 (8 sets).
	for i := 0; i < 5; i++ {
		c.Fetch(x, uint64(i*8))
	}
	if len(killed) == 0 {
		t.Fatal("L3 eviction did not back-invalidate upper levels")
	}
	if x.Met.BackInvalidations == 0 {
		t.Fatal("back-invalidation not counted")
	}
}

// --- LAP (Fig. 8/10) ---

func TestLAPNoFillOnMissNoInvalidateOnHit(t *testing.T) {
	x, c := testCtx(0), NewLAP()
	r := c.Fetch(x, 100)
	if r.Hit || r.Loop || x.L3.Probe(100) >= 0 {
		t.Fatal("LAP miss must not fill the L3 and must clear the loop-bit")
	}
	c.EvictL2(x, cleanLine(100)) // clean victim, no duplicate -> inserted
	if x.L3.Probe(100) < 0 || x.Met.WritesClean != 1 {
		t.Fatal("LAP did not insert the exclusive clean victim")
	}
	r = c.Fetch(x, 100)
	if !r.Hit || !r.Loop {
		t.Fatalf("LAP hit: %+v, want hit with loop-bit set", r)
	}
	if x.L3.Probe(100) < 0 {
		t.Fatal("LAP invalidated on hit")
	}
}

func TestLAPCleanDuplicateDropTagOnly(t *testing.T) {
	x, c := testCtx(0), NewLAP()
	c.EvictL2(x, cleanLine(100))
	writes := x.Met.WritesToLLC()
	c.Fetch(x, 100) // hit, copy stays
	c.EvictL2(x, loopLine(100))
	if x.Met.WritesToLLC() != writes {
		t.Fatal("clean duplicate drop performed a data write")
	}
	if x.Met.TagOnlyUpdates != 1 {
		t.Fatalf("tag-only updates = %d, want 1", x.Met.TagOnlyUpdates)
	}
	w := x.L3.Probe(100)
	if w < 0 || !x.L3.Line(x.L3.SetOf(100), w).Loop {
		t.Fatal("loop-bit not refreshed in L3 tag")
	}
}

func TestLAPDirtyVictimUpdatesDuplicate(t *testing.T) {
	x, c := testCtx(0), NewLAP()
	c.EvictL2(x, cleanLine(100))
	c.Fetch(x, 100)
	c.EvictL2(x, dirtyLine(100))
	w := x.L3.Probe(100)
	if w < 0 || !x.L3.Line(x.L3.SetOf(100), w).Dirty {
		t.Fatal("dirty duplicate not updated in place")
	}
	if x.Met.WritesDirty != 1 {
		t.Fatalf("dirty writes = %d", x.Met.WritesDirty)
	}
}

func TestLAPWriteCountIdentity(t *testing.T) {
	// Paper Section III-A: LAP writes = exclusive clean victims (those
	// without a duplicate) + dirty victims; data-fills are zero.
	x, c := testCtx(0), NewLAP()
	for b := uint64(0); b < 20; b++ {
		c.Fetch(x, b)
		c.EvictL2(x, cleanLine(b))
	}
	if x.Met.WritesFill != 0 {
		t.Fatal("LAP performed data-fills")
	}
	if x.Met.WritesClean == 0 {
		t.Fatal("LAP inserted no exclusive clean victims")
	}
}

func TestLAPVariantNames(t *testing.T) {
	if NewLAP().Name() != "LAP" ||
		NewLAPVariant(AlwaysLRU).Name() != "LAP-LRU" ||
		NewLAPVariant(AlwaysLoopAware).Name() != "LAP-Loop" {
		t.Fatal("variant names drifted")
	}
}

func TestLAPLoopVariantProtectsLoopBlocks(t *testing.T) {
	// With loop-aware replacement, inserting a non-loop block into a set
	// full of loop-blocks must evict... nothing but a non-loop block, and
	// loop-blocks only as a last resort.
	x, c := testCtx(0), NewLAPVariant(AlwaysLoopAware)
	set0 := func(i int) uint64 { return uint64(i * 8) } // all map to set 0
	// Fill set 0 with 3 loop-blocks and 1 non-loop block.
	for i := 0; i < 3; i++ {
		c.EvictL2(x, loopLine(set0(i)))
	}
	c.EvictL2(x, cleanLine(set0(3)))
	// Insert a new non-loop block: the non-loop block must be the victim.
	c.EvictL2(x, cleanLine(set0(4)))
	for i := 0; i < 3; i++ {
		if x.L3.Probe(set0(i)) < 0 {
			t.Fatalf("loop-block %d was evicted while a non-loop block existed", i)
		}
	}
	if x.L3.Probe(set0(3)) >= 0 {
		t.Fatal("non-loop block survived loop-aware replacement")
	}
}

func TestLAPDuelingSwitchesPolicy(t *testing.T) {
	x := testCtx(0)
	c := NewLAP()
	c.Duel().PeriodCycles = 100
	// Make the loop-aware leader group (role A, set 0) suffer misses.
	x.Now = 1
	for i := 0; i < 10; i++ {
		c.Fetch(x, 0) // set 0 = LeaderA; all misses
	}
	x.Now = 200
	c.Fetch(x, 8) // triggers Observe past window
	if c.Duel().Winner() != cache.LeaderB {
		t.Fatal("duel did not elect LRU after loop-aware leader misses")
	}
}

// --- FLEXclusion / Dswitch ---

func TestSwitchingNames(t *testing.T) {
	if NewFLEXclusion().Name() != "FLEXclusion" || NewDswitch(2, 0.436).Name() != "Dswitch" {
		t.Fatal("switching names drifted")
	}
}

func TestSwitchingLeaderSetsKeepTheirMode(t *testing.T) {
	x := testCtx(0)
	c := NewFLEXclusion().(*switching)
	// Set 0 (LeaderA) behaves non-inclusively: miss fills.
	c.Fetch(x, 0)
	if x.L3.Probe(0) < 0 {
		t.Fatal("LeaderA set did not fill (non-inclusive mode)")
	}
	// Set 1 (LeaderB) behaves exclusively: miss does not fill.
	c.Fetch(x, 1)
	if x.L3.Probe(1) >= 0 {
		t.Fatal("LeaderB set filled (must be exclusive mode)")
	}
}

func TestDswitchPrefersFewerWritesWhenCostly(t *testing.T) {
	x := testCtx(0)
	c := NewDswitch(0.3, 10).(*switching) // writes vastly more expensive
	c.duel.PeriodCycles = 10
	// Leader A (noni, set 0): each miss fills -> 1 write each.
	// Leader B (ex, set 1): misses don't write.
	x.Now = 1
	for i := 0; i < 8; i++ {
		c.Fetch(x, uint64(i*8*2)&^7) // set 0 blocks: multiples of 8
	}
	for i := 0; i < 8; i++ {
		c.Fetch(x, uint64(i*8)+1) // set 1 blocks
	}
	x.Now = 100
	c.Fetch(x, 2)
	if c.duel.Winner() != cache.LeaderB {
		t.Fatal("Dswitch did not elect exclusion when writes dominate cost")
	}
}

// --- Hybrid / Lhybrid (Fig. 11) ---

func TestHybridNames(t *testing.T) {
	if NewLhybrid().Name() != "Lhybrid" ||
		NewHybridStage(true, false, false).Name() != "LAP+Winv" ||
		NewHybridStage(false, true, false).Name() != "LAP+LoopSTT" ||
		NewHybridStage(false, false, true).Name() != "LAP+NloopSRAM" {
		t.Fatal("hybrid names drifted")
	}
}

func TestLhybridInsertsIntoSRAMFirst(t *testing.T) {
	x, c := testCtx(2), NewLhybrid() // 2 SRAM ways + 6 STT ways
	c.EvictL2(x, dirtyLine(0))
	w := x.L3.Probe(0)
	if w < 0 || !x.L3.IsSRAMWay(w) {
		t.Fatalf("victim landed in way %d, want SRAM region", w)
	}
	if x.E.Regions[energy.RegionSTT].Writes != 0 {
		t.Fatal("insertion charged an STT write")
	}
}

func TestLhybridWinvRedirectsDirtyHit(t *testing.T) {
	x, c := testCtx(2), NewLhybrid()
	set := x.L3.SetOf(100)
	// Plant a clean copy in the STT region.
	x.L3.InsertAt(set, 5, 100, false, false)
	sttWritesBefore := x.E.Regions[energy.RegionSTT].Writes
	c.EvictL2(x, dirtyLine(100))
	if x.E.Regions[energy.RegionSTT].Writes != sttWritesBefore {
		t.Fatal("dirty hit wrote to STT-RAM despite Winv")
	}
	w := x.L3.Probe(100)
	if w < 0 || !x.L3.IsSRAMWay(w) {
		t.Fatalf("dirty block at way %d, want SRAM", w)
	}
	if !x.L3.Line(set, w).Dirty {
		t.Fatal("redirected block lost its dirty bit")
	}
}

func TestLhybridMigratesMRULoopBlockToSTT(t *testing.T) {
	x, c := testCtx(2), NewLhybrid()
	// Fill both SRAM ways of set 0: one loop-block, one plain.
	c.EvictL2(x, loopLine(0)) // blocks multiple of 8 -> set 0
	c.EvictL2(x, cleanLine(8))
	// Next insertion into set 0 must migrate the loop-block to STT.
	c.EvictL2(x, cleanLine(16))
	w := x.L3.Probe(0)
	if w < 0 || x.L3.IsSRAMWay(w) {
		t.Fatalf("loop-block at way %d, want STT region after migration", w)
	}
	if x.Met.MigrationWrites != 1 {
		t.Fatalf("migrations = %d, want 1", x.Met.MigrationWrites)
	}
	if x.L3.Probe(16) < 0 {
		t.Fatal("incoming block not installed")
	}
}

func TestLhybridEvictsSRAMLRUWithoutLoopBlocks(t *testing.T) {
	x, c := testCtx(2), NewLhybrid()
	c.EvictL2(x, cleanLine(0))
	c.EvictL2(x, cleanLine(8))
	c.EvictL2(x, cleanLine(16)) // no loop-blocks: SRAM LRU (block 0) evicted
	if x.L3.Probe(0) >= 0 {
		t.Fatal("SRAM LRU block not evicted")
	}
	if x.Met.MigrationWrites != 0 {
		t.Fatal("migration happened without loop-blocks")
	}
	if w := x.L3.Probe(16); w < 0 || !x.L3.IsSRAMWay(w) {
		t.Fatal("incoming block not in SRAM")
	}
}

func TestLhybridIncomingLoopBlockGoesToSTTWhenSRAMLoopFree(t *testing.T) {
	x, c := testCtx(2), NewLhybrid()
	c.EvictL2(x, cleanLine(0))
	c.EvictL2(x, cleanLine(8))
	c.EvictL2(x, loopLine(16)) // SRAM full of non-loop: loop incomer -> STT
	w := x.L3.Probe(16)
	if w < 0 || x.L3.IsSRAMWay(w) {
		t.Fatalf("incoming loop-block at way %d, want STT", w)
	}
}

func TestHybridStageLoopSTTPlacement(t *testing.T) {
	x, c := testCtx(2), NewHybridStage(false, true, false)
	c.EvictL2(x, loopLine(0))
	if w := x.L3.Probe(0); w < 0 || x.L3.IsSRAMWay(w) {
		t.Fatal("LoopSTT stage did not steer loop-block to STT")
	}
}

func TestHybridStageNloopSRAMPlacement(t *testing.T) {
	x, c := testCtx(2), NewHybridStage(false, false, true)
	c.EvictL2(x, cleanLine(0))
	if w := x.L3.Probe(0); w < 0 || !x.L3.IsSRAMWay(w) {
		t.Fatal("NloopSRAM stage did not steer non-loop block to SRAM")
	}
}

// --- Banks ---

func TestBanksQueueing(t *testing.T) {
	b := NewBanks(1)
	if lat := b.Access(0, 100, 33, 33); lat != 33 {
		t.Fatalf("first access lat = %d", lat)
	}
	// Second access at the same time queues behind the first.
	if lat := b.Access(0, 100, 8, 8); lat != 33+8 {
		t.Fatalf("queued access lat = %d, want 41", lat)
	}
	// Later access after the bank drained sees no queueing.
	if lat := b.Access(0, 1000, 8, 8); lat != 8 {
		t.Fatalf("drained access lat = %d, want 8", lat)
	}
	// Sub-banked access: occupies 8 cycles but takes 33 to complete.
	if lat := b.Access(0, 2000, 8, 33); lat != 33 {
		t.Fatalf("sub-banked access lat = %d, want 33", lat)
	}
	if lat := b.Access(0, 2000, 8, 33); lat != 8+33 {
		t.Fatalf("second sub-banked access lat = %d, want 41", lat)
	}
}

func TestBanksMapping(t *testing.T) {
	b := NewBanks(4)
	if b.BankOf(0) == b.BankOf(1) {
		t.Fatal("adjacent sets mapped to the same bank")
	}
	if b.BankOf(0) != b.BankOf(4) {
		t.Fatal("bank mapping not modular")
	}
}

func TestBanksBadCountPanics(t *testing.T) {
	for _, n := range []int{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBanks(%d): expected panic", n)
				}
			}()
			NewBanks(n)
		}()
	}
}

// --- Metrics ---

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{WritesFill: 1, WritesDirty: 2, WritesClean: 3, L3Misses: 10, Instructions: 1000, Cycles: 500}
	if m.WritesToLLC() != 6 {
		t.Fatal("WritesToLLC wrong")
	}
	if m.MPKI() != 10 {
		t.Fatalf("MPKI = %v", m.MPKI())
	}
	if m.IPC() != 2 {
		t.Fatalf("IPC = %v", m.IPC())
	}
	var zero Metrics
	if zero.MPKI() != 0 || zero.IPC() != 0 {
		t.Fatal("zero metrics must not divide by zero")
	}
}

// --- Profiler ---

func TestProfilerRedundantFill(t *testing.T) {
	p := NewProfiler()
	p.OnFill(1)
	p.OnL2Write(1) // modified before reuse -> redundant (Fig. 5)
	if p.RedundantFills != 1 || p.TotalFills != 1 {
		t.Fatalf("redundant fills: %d/%d", p.RedundantFills, p.TotalFills)
	}
	p.OnFill(2)
	p.OnFetch(2, true) // reused at L3 first -> useful
	p.OnL2Write(2)
	if p.RedundantFills != 1 {
		t.Fatal("useful fill miscounted as redundant")
	}
	if f := p.RedundantFillFrac(); f != 0.5 {
		t.Fatalf("fraction = %v", f)
	}
}

func TestProfilerCTC(t *testing.T) {
	p := NewProfiler()
	// Block 1: three clean trips then a write (CTC run of 3).
	p.OnFetch(1, false)
	p.OnL2Evict(1, false) // from memory: not a clean trip
	for i := 0; i < 3; i++ {
		p.OnFetch(1, true)
		p.OnL2Evict(1, false)
	}
	p.OnL2Write(1)
	// Block 2: five clean trips, still running at end of sim.
	for i := 0; i < 5; i++ {
		p.OnFetch(2, true)
		p.OnL2Evict(2, false)
	}
	p.Finish()
	if p.CTCRuns[3] != 1 || p.CTCRuns[5] != 1 {
		t.Fatalf("CTC runs: %v", p.CTCRuns)
	}
	c1, cMid, cHigh := p.CTCBuckets()
	// 9 evictions total; 3 in the mid bucket, 5 in the high bucket.
	if c1 != 0 || cMid != 3.0/9 || cHigh != 5.0/9 {
		t.Fatalf("buckets = %v %v %v", c1, cMid, cHigh)
	}
	if lf := p.LoopBlockFrac(); lf != 8.0/9 {
		t.Fatalf("loop-block fraction = %v", lf)
	}
}

// TestProfilerFinishDropsBlocks checks that a finished profile keeps
// its counters alone. A profiled Result holds its profiler, and
// lapexp's run memo keeps every result until exit, so per-block state
// left after Finish would stay live for the whole process.
func TestProfilerFinishDropsBlocks(t *testing.T) {
	p := NewProfiler()
	for b := uint64(0); b < 1000; b++ {
		p.OnFetch(b, true)
		p.OnL2Evict(b, false)
	}
	p.Finish()
	if n := len(p.blocks); n != 0 {
		t.Fatalf("a finished profile holds the state of %d blocks", n)
	}
	if p.CTCRuns[1] != 1000 {
		t.Fatalf("Finish flushed %d one-trip runs, want 1000", p.CTCRuns[1])
	}
}

func TestProfilerCleanInsertAfterL3Evict(t *testing.T) {
	p := NewProfiler()
	p.OnCleanInsert(7) // first insert: not redundant
	if p.RedundantCleanInserts != 0 {
		t.Fatal("first insert counted redundant")
	}
	p.OnCleanInsert(7) // content already in L3 -> redundant
	if p.RedundantCleanInserts != 1 {
		t.Fatal("re-insert not counted")
	}
	p.OnL3Evict(7)
	p.OnCleanInsert(7) // L3 lost the copy: capacity-forced, not redundant
	if p.RedundantCleanInserts != 1 {
		t.Fatal("capacity re-insert wrongly counted redundant")
	}
}
