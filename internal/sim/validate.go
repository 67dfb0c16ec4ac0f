package sim

import (
	"fmt"

	"repro/internal/cache"
)

// FieldError is a validation failure tied to one Config field, so API
// layers can tell a caller which knob to fix (lapserved returns the
// field name in its 400 responses) instead of a free-form string.
type FieldError struct {
	// Field is the Go field name in Config (which is also the JSON key —
	// Config marshals with default field names).
	Field string
	// Reason describes the constraint that failed, including the
	// offending value.
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("%s: %s", e.Field, e.Reason)
}

func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// MaxPrefetchDegree bounds Config.PrefetchDegree. Each prefetched block
// costs an LLC fetch and possibly an L2 victim, so the bound also caps
// how many LLC operations one access can issue.
const MaxPrefetchDegree = 16

// Machine-size bounds. They admit every artifact's machine (the largest
// has 8 cores, 1 MiB L2s and a 24 MiB LLC) and bound one run's
// cache-line state to about 210 MiB (16 B per line at most: a line's
// word and, on a direct-mapped cache, its set's recency word; 9 B per
// line above 16 ways, 8.5 B at 16), so no accepted configuration can
// exhaust the host building its caches. A sampled run holds a few more
// copies of that state: its profile's snapshots.
const (
	// MaxCores bounds Config.Cores, and so a threaded run's threads.
	MaxCores = 64
	// MaxL1Bytes, MaxL2Bytes and MaxL3Bytes bound the cache capacities.
	MaxL1Bytes = 1 << 20
	MaxL2Bytes = 4 << 20
	MaxL3Bytes = 512 << 20
	// MaxL3Banks and MaxDRAMBanks bound the other tables a run
	// allocates by a configured size.
	MaxL3Banks   = 1024
	MaxDRAMBanks = 1024
)

// Validate checks the configuration for the mistakes the simulator would
// otherwise panic on, and for machines too large to simulate. Every
// failure is a *FieldError naming the field.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fieldErrf("Cores", "must be positive (got %d)", c.Cores)
	case c.Cores > MaxCores:
		return fieldErrf("Cores", "at most %d cores (got %d)", MaxCores, c.Cores)
	case c.BlockBytes < 64:
		// A cache line packs its block number in 58 bits (cache.MaxBlock),
		// which covers every 64-bit address only for blocks of 64 bytes
		// or more.
		return fieldErrf("BlockBytes", "block size must be at least 64 bytes (got %d)", c.BlockBytes)
	case c.L1SizeBytes <= 0 || c.L1Ways <= 0:
		return fieldErrf("L1SizeBytes", "invalid L1 geometry %d/%d-way", c.L1SizeBytes, c.L1Ways)
	case c.L1SizeBytes > MaxL1Bytes:
		return fieldErrf("L1SizeBytes", "L1 capacity %d exceeds the %d-byte limit", c.L1SizeBytes, MaxL1Bytes)
	case c.L1Ways > cache.MaxWays:
		return fieldErrf("L1Ways", "L1 associativity %d exceeds the %d-way limit", c.L1Ways, cache.MaxWays)
	case c.L2SizeBytes <= 0 || c.L2Ways <= 0:
		return fieldErrf("L2SizeBytes", "invalid L2 geometry %d/%d-way", c.L2SizeBytes, c.L2Ways)
	case c.L2SizeBytes > MaxL2Bytes:
		return fieldErrf("L2SizeBytes", "L2 capacity %d exceeds the %d-byte limit", c.L2SizeBytes, MaxL2Bytes)
	case c.L2Ways > cache.MaxWays:
		return fieldErrf("L2Ways", "L2 associativity %d exceeds the %d-way limit", c.L2Ways, cache.MaxWays)
	case c.L3SizeBytes <= 0 || c.L3Ways <= 0:
		return fieldErrf("L3SizeBytes", "invalid L3 geometry %d/%d-way", c.L3SizeBytes, c.L3Ways)
	case c.L3SizeBytes > MaxL3Bytes:
		return fieldErrf("L3SizeBytes", "L3 capacity %d exceeds the %d-byte limit", c.L3SizeBytes, MaxL3Bytes)
	case c.L3Ways > cache.MaxWays:
		return fieldErrf("L3Ways", "L3 associativity %d exceeds the %d-way limit", c.L3Ways, cache.MaxWays)
	case c.L3SRAMWays < 0 || c.L3SRAMWays > c.L3Ways:
		return fieldErrf("L3SRAMWays", "hybrid SRAM ways %d out of range 0..%d", c.L3SRAMWays, c.L3Ways)
	case c.L3Banks <= 0 || c.L3Banks&(c.L3Banks-1) != 0:
		return fieldErrf("L3Banks", "LLC banks must be a positive power of two (got %d)", c.L3Banks)
	case c.L3Banks > MaxL3Banks:
		return fieldErrf("L3Banks", "at most %d LLC banks (got %d)", MaxL3Banks, c.L3Banks)
	case c.ClockHz <= 0:
		return fieldErrf("ClockHz", "clock must be positive (got %g)", c.ClockHz)
	case c.BaseCPI <= 0:
		return fieldErrf("BaseCPI", "must be positive (got %g)", c.BaseCPI)
	case c.MLP <= 0:
		return fieldErrf("MLP", "must be positive (got %g)", c.MLP)
	case c.PrefetchDegree < 0 || c.PrefetchDegree > MaxPrefetchDegree:
		return fieldErrf("PrefetchDegree", "prefetch degree must be in 0..%d (got %d)", MaxPrefetchDegree, c.PrefetchDegree)
	case c.UseDRAM && c.DRAM.Banks != 0 && (c.DRAM.Banks < 0 || c.DRAM.Banks > MaxDRAMBanks):
		return fieldErrf("DRAM", "DRAM banks must be in 1..%d, or 0 for DDR3-1600 (got %d)", MaxDRAMBanks, c.DRAM.Banks)
	case c.UseDRAM && c.DRAM.Banks != 0 && (c.DRAM.BlockBytes <= 0 || c.DRAM.RowBytes < c.DRAM.BlockBytes):
		return fieldErrf("DRAM", "DRAM rows of %d bytes do not hold %d-byte blocks", c.DRAM.RowBytes, c.DRAM.BlockBytes)
	case c.SampleInterval > 0 && c.SampleInterval < 1000:
		return fieldErrf("SampleInterval", "sampling interval must be at least 1000 accesses per core (got %d)", c.SampleInterval)
	case c.SampleClusters < 0 || c.SampleClusters > 256:
		return fieldErrf("SampleClusters", "cluster count must be in 0..256 (got %d)", c.SampleClusters)
	case c.SampleClusters > 0 && c.SampleInterval == 0:
		return fieldErrf("SampleClusters", "requires sampled mode (set SampleInterval > 0)")
	case c.SampleWarmup < 0 || c.SampleWarmup > 64:
		return fieldErrf("SampleWarmup", "warmup intervals must be in 0..64 (got %d)", c.SampleWarmup)
	case c.SampleWarmup > 0 && c.SampleInterval == 0:
		return fieldErrf("SampleWarmup", "requires sampled mode (set SampleInterval > 0)")
	case c.SampleInterval > 0 && c.Coherent:
		return fieldErrf("SampleInterval", "sampled mode cannot run coherent workloads (cross-core state does not survive interval jumps)")
	case c.SampleInterval > 0 && c.Profile:
		return fieldErrf("SampleInterval", "sampled mode cannot profile per-block redundancy (profiler state spans skipped intervals)")
	case c.SampleInterval > 0 && c.WarmupAccessesPerCore > 0:
		return fieldErrf("WarmupAccessesPerCore", "sampled mode replaces access-count warmup with functional cluster warmup (SampleWarmup)")
	case c.SampleInterval > 0 && c.MaxAccessesPerCore > 0:
		return fieldErrf("MaxAccessesPerCore", "sampled mode derives run length from the profiled trace; bound the sources instead")
	case c.CheckpointEvery > 0 && c.CheckpointEvery < 1000:
		return fieldErrf("CheckpointEvery", "checkpoint interval must be at least 1000 accesses (got %d)", c.CheckpointEvery)
	}
	for _, geom := range []struct {
		field      string
		name       string
		size, ways int
	}{
		{"L1SizeBytes", "L1", c.L1SizeBytes, c.L1Ways},
		{"L2SizeBytes", "L2", c.L2SizeBytes, c.L2Ways},
		{"L3SizeBytes", "L3", c.L3SizeBytes, c.L3Ways},
	} {
		blocks := geom.size / c.BlockBytes
		if blocks%geom.ways != 0 {
			return fieldErrf(geom.field, "%s capacity not divisible into %d ways", geom.name, geom.ways)
		}
		sets := blocks / geom.ways
		if sets <= 0 || sets&(sets-1) != 0 {
			return fieldErrf(geom.field, "%s set count %d is not a power of two", geom.name, sets)
		}
	}
	return nil
}
