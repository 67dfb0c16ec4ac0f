// Package core implements the paper's contribution: the inclusion
// properties between the private L2s and the shared LLC. It provides
// controllers for the three traditional policies (inclusive,
// non-inclusive, exclusive), the two dynamic switching baselines
// (FLEXclusion and Dswitch), the proposed Loop-block-Aware Policy (LAP)
// with its loop-bit identification and loop-aware set-dueling replacement,
// and the Lhybrid data-placement policy for hybrid SRAM/STT-RAM LLCs.
//
// A controller owns the LLC-side state machine; the hierarchy simulator
// (internal/sim) calls Fetch on every L2 miss and EvictL2 on every L2
// victim, exactly the two data paths the paper's Figure 8 draws.
package core

// WriteSource categorises a write to the LLC, matching the decomposition
// of the paper's Figure 15.
type WriteSource int

// Write sources: data-fills from memory, dirty victims from the L2, and
// clean victims from the L2.
const (
	SrcFill WriteSource = iota
	SrcDirty
	SrcClean
)

// Metrics accumulates the event counts every experiment in the paper
// reports. The controller updates the LLC-side counters; the simulator
// fills in the upper-level and end-of-run fields.
type Metrics struct {
	// L3Accesses, L3Hits and L3Misses count controller Fetch outcomes.
	L3Accesses uint64
	L3Hits     uint64
	L3Misses   uint64

	// WritesFill, WritesDirty and WritesClean decompose data-array writes
	// to the LLC by source (Fig. 15).
	WritesFill  uint64
	WritesDirty uint64
	WritesClean uint64

	// MigrationWrites counts hybrid-LLC SRAM→STT migrations (Lhybrid).
	MigrationWrites uint64

	// TagOnlyUpdates counts LAP's loop-bit refreshes on dropped clean
	// victims — tag-array writes that spare a full data-array write.
	TagOnlyUpdates uint64

	// L3Evictions and L3DirtyEvictions count replacement victims.
	L3Evictions      uint64
	L3DirtyEvictions uint64

	// MemReads and MemWrites count main-memory traffic.
	MemReads  uint64
	MemWrites uint64

	// BackInvalidations counts inclusive-policy upper-level kills.
	BackInvalidations uint64

	// Upper-level counters, filled by the simulator.
	L1Accesses       uint64
	L1Misses         uint64
	L2Accesses       uint64
	L2Misses         uint64
	L2Evictions      uint64
	L2CleanEvictions uint64
	L2DirtyEvictions uint64

	// SnoopProbes and SnoopDirtyTransfers count coherence activity for
	// multi-threaded runs (Fig. 20c); SnoopTraffic is the weighted bus
	// message total.
	SnoopProbes         uint64
	SnoopDirtyTransfers uint64
	SnoopTraffic        uint64

	// Prefetches counts L2 prefetch fills (PrefetchDegree > 0).
	Prefetches uint64

	// BypassedWrites counts L2 victims a bypass predictor diverted
	// around the LLC (DeadWriteBypass, ReuseDetector, RDCopyback).
	BypassedWrites uint64

	// BypassedFills counts demand fills a bypass predictor served to the
	// core without installing the block in the LLC (ReuseDetector).
	BypassedFills uint64

	// Instructions and Cycles summarise the run.
	Instructions uint64
	Cycles       uint64
}

// Add accumulates o's counts into m, e.g. to total several runs; all
// counters are event counts, so addition is exact.
func (m *Metrics) Add(o *Metrics) {
	m.L3Accesses += o.L3Accesses
	m.L3Hits += o.L3Hits
	m.L3Misses += o.L3Misses
	m.WritesFill += o.WritesFill
	m.WritesDirty += o.WritesDirty
	m.WritesClean += o.WritesClean
	m.MigrationWrites += o.MigrationWrites
	m.TagOnlyUpdates += o.TagOnlyUpdates
	m.L3Evictions += o.L3Evictions
	m.L3DirtyEvictions += o.L3DirtyEvictions
	m.MemReads += o.MemReads
	m.MemWrites += o.MemWrites
	m.BackInvalidations += o.BackInvalidations
	m.L1Accesses += o.L1Accesses
	m.L1Misses += o.L1Misses
	m.L2Accesses += o.L2Accesses
	m.L2Misses += o.L2Misses
	m.L2Evictions += o.L2Evictions
	m.L2CleanEvictions += o.L2CleanEvictions
	m.L2DirtyEvictions += o.L2DirtyEvictions
	m.SnoopProbes += o.SnoopProbes
	m.SnoopDirtyTransfers += o.SnoopDirtyTransfers
	m.SnoopTraffic += o.SnoopTraffic
	m.Prefetches += o.Prefetches
	m.BypassedWrites += o.BypassedWrites
	m.BypassedFills += o.BypassedFills
}

// Sub subtracts o's counts from m, including the end-of-run
// Instructions and Cycles fields. The sampled executor uses it to turn
// two snapshots into an interval delta.
func (m *Metrics) Sub(o *Metrics) {
	m.L3Accesses -= o.L3Accesses
	m.L3Hits -= o.L3Hits
	m.L3Misses -= o.L3Misses
	m.WritesFill -= o.WritesFill
	m.WritesDirty -= o.WritesDirty
	m.WritesClean -= o.WritesClean
	m.MigrationWrites -= o.MigrationWrites
	m.TagOnlyUpdates -= o.TagOnlyUpdates
	m.L3Evictions -= o.L3Evictions
	m.L3DirtyEvictions -= o.L3DirtyEvictions
	m.MemReads -= o.MemReads
	m.MemWrites -= o.MemWrites
	m.BackInvalidations -= o.BackInvalidations
	m.L1Accesses -= o.L1Accesses
	m.L1Misses -= o.L1Misses
	m.L2Accesses -= o.L2Accesses
	m.L2Misses -= o.L2Misses
	m.L2Evictions -= o.L2Evictions
	m.L2CleanEvictions -= o.L2CleanEvictions
	m.L2DirtyEvictions -= o.L2DirtyEvictions
	m.SnoopProbes -= o.SnoopProbes
	m.SnoopDirtyTransfers -= o.SnoopDirtyTransfers
	m.SnoopTraffic -= o.SnoopTraffic
	m.Prefetches -= o.Prefetches
	m.BypassedWrites -= o.BypassedWrites
	m.BypassedFills -= o.BypassedFills
	m.Instructions -= o.Instructions
	m.Cycles -= o.Cycles
}

// AddScaled accumulates k copies of o into m (again including
// Instructions and Cycles): the sampled executor extrapolates a full
// run by adding each representative interval's delta once per interval
// in its cluster.
func (m *Metrics) AddScaled(o *Metrics, k uint64) {
	m.L3Accesses += o.L3Accesses * k
	m.L3Hits += o.L3Hits * k
	m.L3Misses += o.L3Misses * k
	m.WritesFill += o.WritesFill * k
	m.WritesDirty += o.WritesDirty * k
	m.WritesClean += o.WritesClean * k
	m.MigrationWrites += o.MigrationWrites * k
	m.TagOnlyUpdates += o.TagOnlyUpdates * k
	m.L3Evictions += o.L3Evictions * k
	m.L3DirtyEvictions += o.L3DirtyEvictions * k
	m.MemReads += o.MemReads * k
	m.MemWrites += o.MemWrites * k
	m.BackInvalidations += o.BackInvalidations * k
	m.L1Accesses += o.L1Accesses * k
	m.L1Misses += o.L1Misses * k
	m.L2Accesses += o.L2Accesses * k
	m.L2Misses += o.L2Misses * k
	m.L2Evictions += o.L2Evictions * k
	m.L2CleanEvictions += o.L2CleanEvictions * k
	m.L2DirtyEvictions += o.L2DirtyEvictions * k
	m.SnoopProbes += o.SnoopProbes * k
	m.SnoopDirtyTransfers += o.SnoopDirtyTransfers * k
	m.SnoopTraffic += o.SnoopTraffic * k
	m.Prefetches += o.Prefetches * k
	m.BypassedWrites += o.BypassedWrites * k
	m.BypassedFills += o.BypassedFills * k
	m.Instructions += o.Instructions * k
	m.Cycles += o.Cycles * k
}

// AddWrite records a data-array write by source.
func (m *Metrics) AddWrite(src WriteSource) {
	switch src {
	case SrcFill:
		m.WritesFill++
	case SrcDirty:
		m.WritesDirty++
	case SrcClean:
		m.WritesClean++
	}
}

// WritesToLLC is the total data-array write traffic (Fig. 15's bar
// height), excluding hybrid migrations.
func (m *Metrics) WritesToLLC() uint64 {
	return m.WritesFill + m.WritesDirty + m.WritesClean
}

// MPKI returns LLC misses per kilo-instruction (Fig. 18).
func (m *Metrics) MPKI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return 1000 * float64(m.L3Misses) / float64(m.Instructions)
}

// IPC returns aggregate retired instructions per cycle.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}
