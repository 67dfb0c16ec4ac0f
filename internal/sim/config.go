// Package sim wires the full simulated machine together: per-core L1/L2
// private caches, the shared banked LLC driven by an inclusion controller
// from internal/core, the energy meter, an optional snooping coherence
// bus, and a cycle-approximate timing model with LLC bank contention. It
// is the stand-in for the paper's modified gem5 setup (Table II).
package sim

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/energy"
)

// Config describes one simulated machine. DefaultConfig reproduces the
// paper's Table II; experiments vary individual fields.
type Config struct {
	// Cores is the number of cores (and of trace sources).
	Cores int

	// Private L1 data cache geometry (per core).
	L1SizeBytes, L1Ways int
	// Private L2 geometry (per core).
	L2SizeBytes, L2Ways int
	// Shared L3 geometry.
	L3SizeBytes, L3Ways int
	// BlockBytes is the block size at every level.
	BlockBytes int
	// L3Banks is the number of independently scheduled LLC banks.
	L3Banks int

	// L3SRAMWays > 0 selects a hybrid LLC whose first L3SRAMWays ways per
	// set are SRAM and the rest STT-RAM.
	L3SRAMWays int

	// L3Replacement selects the LLC's base replacement family (LRU, the
	// paper's default, or RRIP per the Section IV note).
	L3Replacement cache.Replacement

	// L3Tech is the single-technology LLC data technology; SRAMTech and
	// STTTech are the hybrid regions' technologies (SRAMTech also provides
	// hybrid-SRAM latency/energy when L3SRAMWays > 0).
	L3Tech   energy.Tech
	SRAMTech energy.Tech
	STTTech  energy.Tech

	// ClockHz is the core clock.
	ClockHz float64
	// L1Cycles and L2Cycles are upper-level access latencies.
	L1Cycles, L2Cycles uint64
	// L3ReadCycles/L3WriteCycles are the single-technology LLC data-array
	// occupancies; the hybrid regions use SRAMReadCycles... STTWriteCycles.
	L3ReadCycles, L3WriteCycles     uint64
	SRAMReadCycles, SRAMWriteCycles uint64
	STTReadCycles, STTWriteCycles   uint64
	// MemCycles is the main-memory access latency.
	MemCycles uint64
	// SnoopCycles is the latency of a cache-to-cache dirty transfer.
	SnoopCycles uint64
	// BankOccupancyFrac is the fraction of an access's latency that its
	// LLC bank stays busy (sub-banked arrays pipeline accesses, so the
	// array is blocked for less than the full access latency).
	BankOccupancyFrac float64

	// PrefetchDegree enables a next-N-line prefetcher at the L2: on an
	// L2 demand miss, the next PrefetchDegree sequential blocks are
	// fetched into the L2 through the inclusion controller (so prefetch
	// traffic sees the same policy costs demand traffic does). Zero
	// disables prefetching (the paper's configuration).
	PrefetchDegree int

	// BaseCPI is the no-stall cycles-per-instruction (1/issue width).
	BaseCPI float64
	// MLP divides read-miss penalties to model memory-level parallelism
	// in the out-of-order core.
	MLP float64
	// StoreStallFrac is the fraction of a store's latency the core
	// actually stalls for (the store buffer hides the rest).
	StoreStallFrac float64

	// UseDRAM replaces the fixed MemCycles latency with the row-buffer
	// DRAM model in internal/dram (DDR3-1600 timing by default).
	UseDRAM bool
	// DRAM configures the DRAM model when UseDRAM is set; a zero value
	// selects dram.DDR3_1600().
	DRAM dram.Config

	// Coherent enables the snooping bus; use for multi-threaded workloads
	// sharing one address space.
	Coherent bool
	// Profile enables the per-block redundancy/CTC profiler.
	Profile bool

	// MaxAccessesPerCore bounds the run; 0 means run until every source
	// is exhausted.
	MaxAccessesPerCore uint64

	// WarmupAccessesPerCore runs the hierarchy for this many leading
	// accesses per core before statistics start, mirroring the paper's
	// fast-forward-then-measure methodology. Warmup accesses change cache
	// state but are excluded from every reported metric.
	WarmupAccessesPerCore uint64

	// SampleInterval > 0 selects sampled interval simulation
	// (internal/sample): the trace is split into windows of this many
	// accesses per core, windows are clustered by behavior signature, and
	// only one representative per cluster is simulated in detail — the
	// rest are fast-forwarded in functional warmup mode and extrapolated
	// by cluster weight. 0 (the default) is exact mode. Sampled runs
	// require forkable trace sources (workload surrogates, in-memory
	// traces) and are incompatible with Coherent, Profile,
	// WarmupAccessesPerCore, and MaxAccessesPerCore (bound the sources
	// instead); Validate reports which knob conflicts.
	SampleInterval uint64
	// SampleClusters is the number of k-means clusters (= detailed
	// intervals simulated per run) in sampled mode. 0 picks
	// ~sqrt(intervals) automatically.
	SampleClusters int
	// SampleWarmup is the number of preceding intervals re-run in
	// functional mode before each representative interval, restoring
	// recency/loop-block state after a fast-forward jump.
	SampleWarmup int

	// CheckpointEvery, when positive, snapshots the full machine state
	// every CheckpointEvery executed accesses (summed across cores) so an
	// attached checkpoint sink can persist them (RunCheckpointed). It is
	// a host-execution knob with no effect on results — a checkpointed
	// run is byte-identical to an uninterrupted one — so the memo layers
	// normalize it out of their keys. Checkpointing walks every core's
	// private levels directly (no replay) and silently disables itself
	// on configurations whose state is not serialized (Coherent,
	// Profile, UseDRAM, sampled mode, telemetry).
	CheckpointEvery uint64
}

// DefaultConfig returns the paper's Table II system with an STT-RAM LLC:
// 4 cores at 3GHz (OoO, issue width 4), 32KB 4-way L1s, 512KB 8-way L2s,
// and a shared 8MB 16-way 4-bank L3 with 64B blocks.
func DefaultConfig() Config {
	return Config{
		Cores:       4,
		L1SizeBytes: 32 << 10, L1Ways: 4,
		L2SizeBytes: 512 << 10, L2Ways: 8,
		L3SizeBytes: 8 << 20, L3Ways: 16,
		BlockBytes: 64,
		L3Banks:    4,

		L3Tech:   energy.STTRAM(),
		SRAMTech: energy.SRAM(),
		STTTech:  energy.STTRAM(),

		ClockHz:  3e9,
		L1Cycles: 2, L2Cycles: 4,
		L3ReadCycles: 8, L3WriteCycles: 33,
		SRAMReadCycles: 8, SRAMWriteCycles: 8,
		STTReadCycles: 8, STTWriteCycles: 33,
		MemCycles:         160,
		SnoopCycles:       30,
		BankOccupancyFrac: 0.25,

		BaseCPI:        0.25,
		MLP:            4,
		StoreStallFrac: 0.3,
	}
}

// WithSRAML3 returns a copy of c with a pure-SRAM LLC (Fig. 2a/12a).
func (c Config) WithSRAML3() Config {
	c.L3Tech = energy.SRAM()
	c.L3ReadCycles, c.L3WriteCycles = 8, 8
	c.L3SRAMWays = 0
	return c
}

// WithSTTL3 returns a copy of c with a pure STT-RAM LLC built from tech
// (use energy.STTRAM() or a WithWriteReadRatio-scaled variant).
func (c Config) WithSTTL3(tech energy.Tech) Config {
	c.L3Tech = tech
	c.L3ReadCycles, c.L3WriteCycles = 8, 33
	c.L3SRAMWays = 0
	return c
}

// WithHybridL3 returns a copy of c with the paper's hybrid LLC: 2MB SRAM
// (4 ways) + 6MB STT-RAM (12 ways) per Table II.
func (c Config) WithHybridL3() Config {
	c.L3SRAMWays = 4
	return c
}

// numL3Regions reports how many energy regions the LLC has.
func (c Config) hybrid() bool { return c.L3SRAMWays > 0 }
