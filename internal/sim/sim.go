package sim

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/trace"
)

// Result summarises one simulation run.
type Result struct {
	// Policy names the inclusion controller that ran.
	Policy string
	// Met holds the raw event counts.
	Met core.Metrics
	// EPI is the LLC energy-per-instruction breakdown (the paper's
	// headline metric).
	EPI energy.Breakdown
	// TotalNJ is the total LLC energy of the run.
	TotalNJ float64
	// IPCs holds the per-core instructions-per-cycle; Throughput is their
	// sum (the paper's multi-programmed performance metric).
	IPCs       []float64
	Throughput float64
	// Cycles is the runtime (slowest core).
	Cycles uint64
	// Prof holds redundancy/CTC statistics when profiling was enabled.
	Prof *core.Profiler
	// Snoop holds coherence-bus statistics for coherent runs.
	Snoop coherence.Stats
	// DRAM holds row-buffer statistics when the DRAM model was enabled.
	DRAM dram.Stats
	// BankOps is the per-bank access count of the LLC timing model
	// (Config.L3Banks banks) — the bank utilization profile.
	BankOps []uint64
	// Sample is the sampled-simulation error estimate; nil for exact
	// runs. Riding inside Result lets the estimate flow through every
	// memo and cache layer without changing their value types.
	Sample *SampleEstimate
}

// SampleEstimate is the sampled executor's report for one run: how much
// of the trace was actually simulated and the propagated per-metric
// confidence of the extrapolated totals. Produced by internal/sample;
// defined here so it can travel inside Result.
type SampleEstimate struct {
	// Clusters is the number of k-means clusters over full intervals.
	Clusters int `json:"clusters"`
	// IntervalsProfiled is the total interval count of the trace.
	IntervalsProfiled int `json:"intervals_profiled"`
	// IntervalsDetailed is how many intervals ran the full timing model.
	IntervalsDetailed int `json:"intervals_detailed"`
	// IntervalsWarmup is how many intervals re-ran functionally to warm
	// cache state before representatives.
	IntervalsWarmup int `json:"intervals_warmup"`
	// IntervalsSkipped is how many intervals were neither simulated nor
	// warmed — pure extrapolation.
	IntervalsSkipped int `json:"intervals_skipped"`
	// WorkReduction is IntervalsProfiled / (IntervalsDetailed +
	// IntervalsWarmup): the fraction of interval-work avoided, counting
	// a functional warmup interval as expensive as a detailed one. The
	// realized wall-clock speedup is higher (functional intervals are
	// cheaper) and further amortized when one profile serves several
	// policies; this figure is the conservative per-run bound.
	WorkReduction float64 `json:"work_reduction"`
	// MissRateRelCI is the relative 95% confidence half-width of the LLC
	// miss rate, propagated from within-cluster signature dispersion.
	MissRateRelCI float64 `json:"miss_rate_rel_ci"`
	// EPIRelCI is the relative 95% confidence half-width of EPI,
	// propagated from the LLC read- and write-traffic series (the two
	// activity terms dominating dynamic LLC energy).
	EPIRelCI float64 `json:"epi_rel_ci"`
}

// MPKI returns LLC misses per kilo-instruction.
func (r Result) MPKI() float64 { return r.Met.MPKI() }

// accessBatch is the per-core trace decode buffer length: sources are
// drained in runs of this many accesses to amortise the Source interface
// call overhead (trace.FillBatch) on the hot loop.
const accessBatch = 256

// coreState is one core's private hierarchy and progress.
type coreState struct {
	id     int
	l1, l2 *cache.Cache
	src    trace.Source
	cycles float64
	instrs uint64
	nAcc   uint64
	done   bool

	// buf/bufPos/srcEOF implement the batched trace decode (see next).
	buf    []trace.Access
	bufPos int
	srcEOF bool

	// rp is a replayed core's position in its recording (replay.go).
	// A replayed core has no source and no L1/L2.
	rp *replayCursor
}

// next returns the core's next access, refilling the decode buffer in
// accessBatch-sized runs.
func (c *coreState) next() (trace.Access, bool) {
	if c.bufPos >= len(c.buf) {
		if c.srcEOF {
			return trace.Access{}, false
		}
		buf := c.buf[:cap(c.buf)]
		n := trace.FillBatch(c.src, buf)
		if n < len(buf) {
			c.srcEOF = true
		}
		c.buf, c.bufPos = buf[:n], 0
		if n == 0 {
			return trace.Access{}, false
		}
	}
	a := c.buf[c.bufPos]
	c.bufPos++
	return a, true
}

// machine is the assembled simulator.
type machine struct {
	cfg   Config
	cores []*coreState
	ctx   *core.Ctx
	ctrl  core.Controller
	bus   *coherence.Bus
	mem   *dram.Memory

	// pen is cfg.penalties(), the stall of an access the private levels
	// serve.
	pen [4]float64

	// Telemetry observation (nil on unobserved runs — the hot loop then
	// pays one nil check per access). loopFills counts loop-classified
	// fetches for the per-interval series.
	tel       *telemetryState
	loopFills uint64

	// ck is the checkpoint schedule (nil on non-checkpointed runs — the
	// hot loop then pays one nil check per access, like telemetry).
	// Snapshots are defined between two accesses of the loop's schedule.
	ck *ckState

	// Warmup baselines, captured when the measurement window opens so
	// that reported metrics cover only the post-warmup region.
	warmupDone  bool
	baseMet     core.Metrics
	baseSnoop   coherence.Stats
	baseMeter   meterSnapshot
	baseCycles  []float64
	baseInstrs  []uint64
	baseBankOps []uint64
}

// meterSnapshot freezes the energy meter's counters at a point in time.
type meterSnapshot struct {
	tag    uint64
	reads  [2]uint64
	writes [2]uint64
}

// Run simulates srcs (one per core) under the given inclusion controller
// and returns the collected metrics. It panics on configuration misuse
// (wrong source count), since that is a programming error.
func Run(cfg Config, ctrl core.Controller, srcs []trace.Source) Result {
	return RunObserved(cfg, ctrl, srcs, nil)
}

// RunObserved is Run with an optional epoch/interval telemetry hook.
// tel lives outside Config on purpose: Config stays comparable (memo
// keys embed it by value), and a nil tel keeps the loop's cost at one
// nil check per access.
func RunObserved(cfg Config, ctrl core.Controller, srcs []trace.Source, tel *Telemetry) Result {
	if len(srcs) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d sources for %d cores", len(srcs), cfg.Cores))
	}
	m := build(cfg, ctrl, srcs)
	if tel != nil {
		m.tel = &telemetryState{cfg: tel}
	}
	m.loop()
	if m.tel != nil {
		m.telFlush(true)
		if tel.OnDone != nil {
			tel.OnDone(m.maxCycles())
		}
	}
	return m.result()
}

func build(cfg Config, ctrl core.Controller, srcs []trace.Source) *machine {
	m := newMachine(cfg, ctrl)
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, m.newCore(i, srcs[i]))
	}
	if cfg.Coherent {
		peers := make([]coherence.Peer, len(m.cores))
		for i, c := range m.cores {
			peers[i] = (*corePeer)(c)
		}
		m.bus = coherence.NewBus(peers)
	}
	if backInvalidates(ctrl) {
		m.ctx.BackInvalidate = m.backInvalidate
	}
	return m
}

// newMachine builds the shared part of a machine, without cores: the
// LLC, its energy meter and bank model, and the DRAM.
func newMachine(cfg Config, ctrl core.Controller) *machine {
	l3 := cache.New(cache.Config{
		Name: "L3", SizeBytes: cfg.L3SizeBytes, Ways: cfg.L3Ways,
		BlockBytes: cfg.BlockBytes, SRAMWays: cfg.L3SRAMWays,
		Replacement: cfg.L3Replacement,
	})
	var meter *energy.Meter
	readCyc := [2]uint64{cfg.L3ReadCycles, cfg.L3ReadCycles}
	writeCyc := [2]uint64{cfg.L3WriteCycles, cfg.L3WriteCycles}
	if cfg.hybrid() {
		sramBytes := int64(cfg.L3SizeBytes) * int64(cfg.L3SRAMWays) / int64(cfg.L3Ways)
		sttBytes := int64(cfg.L3SizeBytes) - sramBytes
		meter = energy.Hybrid(cfg.ClockHz, cfg.SRAMTech, cfg.STTTech, sramBytes, sttBytes)
		readCyc = [2]uint64{cfg.SRAMReadCycles, cfg.STTReadCycles}
		writeCyc = [2]uint64{cfg.SRAMWriteCycles, cfg.STTWriteCycles}
	} else {
		meter = energy.SingleTech(cfg.ClockHz, cfg.L3Tech, int64(cfg.L3SizeBytes))
	}
	occ := func(lat uint64) uint64 {
		frac := cfg.BankOccupancyFrac
		if frac <= 0 || frac > 1 {
			frac = 1
		}
		o := uint64(float64(lat) * frac)
		if o < 1 {
			o = 1
		}
		return o
	}
	ctx := &core.Ctx{
		L3:        l3,
		E:         meter,
		Met:       &core.Metrics{},
		Banks:     core.NewBanks(cfg.L3Banks),
		ReadCyc:   readCyc,
		WriteCyc:  writeCyc,
		ReadOcc:   [2]uint64{occ(readCyc[0]), occ(readCyc[1])},
		WriteOcc:  [2]uint64{occ(writeCyc[0]), occ(writeCyc[1])},
		MemCycles: cfg.MemCycles,
	}
	if cfg.Profile {
		ctx.Prof = core.NewProfiler()
	}
	m := &machine{cfg: cfg, ctx: ctx, ctrl: ctrl, pen: cfg.penalties()}
	if cfg.UseDRAM {
		dcfg := cfg.DRAM
		if dcfg.Banks == 0 {
			dcfg = dram.DDR3_1600()
		}
		m.mem = dram.New(dcfg)
		blockBytes := uint64(cfg.BlockBytes)
		ctx.MemAccess = func(block, now uint64, write bool) uint64 {
			return m.mem.Access(block*blockBytes, now, write)
		}
	}
	return m
}

// newCore builds core i's private levels over src.
func (m *machine) newCore(i int, src trace.Source) *coreState {
	cfg := &m.cfg
	return &coreState{
		id: i,
		l1: cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1SizeBytes,
			Ways: cfg.L1Ways, BlockBytes: cfg.BlockBytes}),
		l2: cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2SizeBytes,
			Ways: cfg.L2Ways, BlockBytes: cfg.BlockBytes}),
		src: src,
		buf: make([]trace.Access, 0, accessBatch),
	}
}

// backInvalidates reports whether ctrl reaches into the private levels:
// the inclusive controller removes every upper-level copy of an LLC
// victim, and so does a wrapper around it (inclusive+DWB).
func backInvalidates(ctrl core.Controller) bool {
	for {
		switch c := ctrl.(type) {
		case *core.Inclusive:
			return true
		case interface{ Base() core.Controller }:
			ctrl = c.Base()
		default:
			return false
		}
	}
}

// loop drives the run to completion. It advances the least-progressed
// active core one access at a time, ties going to the lowest core
// index, which interleaves the cores' LLC traffic in timestamp order.
func (m *machine) loop() {
	for {
		var next *coreState
		for _, c := range m.cores {
			if c.done {
				continue
			}
			if next == nil || c.cycles < next.cycles {
				next = c
			}
		}
		if next == nil {
			break
		}
		acc, ok := next.next()
		if !ok {
			next.done = true
			continue
		}
		m.step(next, acc)
		next.nAcc++
		if m.tel != nil {
			m.telTick()
		}
		if !m.warmupDone && m.cfg.WarmupAccessesPerCore > 0 {
			m.maybeEndWarmup()
		}
		if m.cfg.MaxAccessesPerCore > 0 && next.nAcc >= m.cfg.MaxAccessesPerCore+m.cfg.WarmupAccessesPerCore {
			next.done = true
		}
		if m.ck != nil {
			m.ck.seen++
			if m.ck.seen == m.ck.next {
				m.checkpointNow()
				m.ck.next += m.ck.every
			}
		}
	}
	if m.ctx.Prof != nil {
		m.ctx.Prof.Finish()
	}
}

// allDone reports whether every core has exhausted its stream or quota.
func (m *machine) allDone() bool {
	for _, c := range m.cores {
		if !c.done {
			return false
		}
	}
	return true
}

// maybeEndWarmup opens the measurement window once every core has
// finished its warmup quota, snapshotting the counters accumulated so
// far so they can be subtracted from the final report.
func (m *machine) maybeEndWarmup() {
	for _, c := range m.cores {
		if !c.done && c.nAcc < m.cfg.WarmupAccessesPerCore {
			return
		}
	}
	m.warmupDone = true
	m.baseMet = *m.ctx.Met
	if m.bus != nil {
		m.baseSnoop = m.bus.Stats
	}
	m.baseMeter = meterSnapshot{tag: m.ctx.E.TagAccesses}
	for i := range m.ctx.E.Regions {
		m.baseMeter.reads[i] = m.ctx.E.Regions[i].Reads
		m.baseMeter.writes[i] = m.ctx.E.Regions[i].Writes
	}
	m.baseBankOps = append([]uint64(nil), m.ctx.Banks.Ops()...)
	m.baseCycles = make([]float64, len(m.cores))
	m.baseInstrs = make([]uint64, len(m.cores))
	for i, c := range m.cores {
		m.baseCycles[i] = c.cycles
		m.baseInstrs[i] = c.instrs
	}
	if m.ctx.Prof != nil {
		// Redundancy statistics restart with the measurement window.
		m.ctx.Prof = core.NewProfiler()
	}
	if m.tel != nil {
		m.telWarmupEnd()
	}
}

// subtractBaselines removes warmup-era counts from the final metrics.
func (m *machine) subtractBaselines() {
	if !m.warmupDone {
		return
	}
	met, base := m.ctx.Met, &m.baseMet
	met.L3Accesses -= base.L3Accesses
	met.L3Hits -= base.L3Hits
	met.L3Misses -= base.L3Misses
	met.WritesFill -= base.WritesFill
	met.WritesDirty -= base.WritesDirty
	met.WritesClean -= base.WritesClean
	met.MigrationWrites -= base.MigrationWrites
	met.TagOnlyUpdates -= base.TagOnlyUpdates
	met.L3Evictions -= base.L3Evictions
	met.L3DirtyEvictions -= base.L3DirtyEvictions
	met.MemReads -= base.MemReads
	met.MemWrites -= base.MemWrites
	met.BackInvalidations -= base.BackInvalidations
	met.L1Accesses -= base.L1Accesses
	met.L1Misses -= base.L1Misses
	met.L2Accesses -= base.L2Accesses
	met.L2Misses -= base.L2Misses
	met.L2Evictions -= base.L2Evictions
	met.L2CleanEvictions -= base.L2CleanEvictions
	met.L2DirtyEvictions -= base.L2DirtyEvictions
	met.SnoopDirtyTransfers -= base.SnoopDirtyTransfers
	met.Prefetches -= base.Prefetches
	met.BypassedWrites -= base.BypassedWrites
	met.BypassedFills -= base.BypassedFills
	if m.bus != nil {
		m.bus.Stats.Probes -= m.baseSnoop.Probes
		m.bus.Stats.Broadcasts -= m.baseSnoop.Broadcasts
		m.bus.Stats.DirtyTransfers -= m.baseSnoop.DirtyTransfers
		m.bus.Stats.Invalidations -= m.baseSnoop.Invalidations
		m.bus.Stats.MemMessages -= m.baseSnoop.MemMessages
	}
	m.ctx.E.TagAccesses -= m.baseMeter.tag
	for i := range m.ctx.E.Regions {
		m.ctx.E.Regions[i].Reads -= m.baseMeter.reads[i]
		m.ctx.E.Regions[i].Writes -= m.baseMeter.writes[i]
	}
}

// step processes one access on core c. Ctx.Now is refreshed just
// before each controller call (access, prefetch, onL2Evict).
func (m *machine) step(c *coreState, acc trace.Access) {
	m.retire(c, acc.Instrs)
	block := acc.Addr / uint64(m.cfg.BlockBytes)
	lat := m.access(c, block, acc.Write)
	m.stall(c, lat, acc.Write)
}

// retire charges an access's instructions to core c at the base CPI.
// It runs before the access, so the LLC sees the core's clock as of
// the access's issue.
func (m *machine) retire(c *coreState, instrs uint16) {
	c.instrs += uint64(instrs)
	c.cycles += m.cfg.BaseCPI * float64(instrs)
}

// stall charges core c for an access of latency lat. An access the
// private levels serve adds its entry of m.pen; replay's runAhead adds
// the same entries, so both loops add the same rounded values.
func (m *machine) stall(c *coreState, lat uint64, write bool) {
	w := 0
	if write {
		w = 1
	}
	switch lat {
	case m.cfg.L1Cycles:
		c.cycles += m.pen[w]
	case m.cfg.L1Cycles + m.cfg.L2Cycles:
		c.cycles += m.pen[2|w]
	default:
		c.cycles += m.cfg.penalty(lat, write)
	}
}

// penalty returns the stall of an access of latency lat: latency beyond
// the (pipelined) L1 stalls the core, divided by the memory-level
// parallelism the OoO window extracts; stores stall only for the
// un-buffered fraction.
func (c *Config) penalty(lat uint64, write bool) float64 {
	p := 0.0
	if lat > c.L1Cycles {
		p = float64(lat-c.L1Cycles) / c.MLP
		if write {
			p *= c.StoreStallFrac
		}
	}
	return p
}

// penalties returns the stall of an access served by the L1 (entries 0
// and 1) or the L2 (entries 2 and 3), a store in the odd entries.
func (c *Config) penalties() [4]float64 {
	var pen [4]float64
	for i := range pen {
		pen[i] = c.penalty(c.L1Cycles+uint64(i>>1)*c.L2Cycles, i&1 != 0)
	}
	return pen
}

// stepFunctional processes one access with the clock frozen: the full
// hierarchy walk runs, so tags, recency, loop bits, and dueling state
// stay warm, but no cycles accumulate and no stall penalty is computed.
// Ctx.Functional (set by the Engine around functional windows)
// suppresses energy metering and bank/memory timing below the
// controller, while the cheap event counters keep counting — interval
// signatures are built from them. Like step, this path must not
// allocate (TestAccessAllocsZero pins both).
//
// The clock staying frozen is deliberate, not an approximation gap: a
// cycle-ordered functional loop paced by nominal latencies was tried
// and reverted. Without the bank-queueing feedback that couples cores
// in detailed mode, pseudo-clocks drift apart per-core, and a later
// detailed window then charges the lagging cores enormous phantom bank
// waits against leader-stamped timestamps, inflating cycle and static-
// energy extrapolations severalfold. Lockstep functional interleaving
// reproduces the detailed run's cache trajectory to within ~0.01% of
// LLC misses on the Table III mixes, so the extra machinery bought no
// state fidelity either.
func (m *machine) stepFunctional(c *coreState, acc trace.Access) {
	c.instrs += uint64(acc.Instrs)
	m.access(c, acc.Addr/uint64(m.cfg.BlockBytes), acc.Write)
}

// access performs the hierarchy walk and returns the access latency.
func (m *machine) access(c *coreState, block uint64, write bool) uint64 {
	cfg := &m.cfg
	met := m.ctx.Met
	met.L1Accesses++

	if write && m.ctx.Prof != nil {
		m.ctx.Prof.OnL2Write(block)
	}

	// L1.
	if w := c.l1.Lookup(block); w >= 0 {
		set := c.l1.SetOf(block)
		l := c.l1.Meta(set, w)
		if write {
			m.onWriteHit(c, block, l)
			l.SetDirty(true)
		}
		return cfg.L1Cycles
	}
	met.L1Misses++
	met.L2Accesses++

	// L2.
	if w := c.l2.Lookup(block); w >= 0 {
		set := c.l2.SetOf(block)
		l := c.l2.Meta(set, w)
		if write {
			m.onWriteHit(c, block, l)
			l.SetLoop(false) // a written block is no loop-block (Fig. 10a)
		}
		m.fillL1(c, block, write, l.Shared())
		return cfg.L1Cycles + cfg.L2Cycles
	}
	met.L2Misses++

	// Coherence snoop before going to the LLC.
	shared := false
	if m.bus != nil {
		res := m.bus.OnMiss(c.id, block)
		shared = res.SharedElsewhere
		if res.SuppliedDirty {
			met.SnoopDirtyTransfers++
			// Cache-to-cache supply: the requester inherits ownership of
			// the dirty data; the LLC is not consulted.
			m.installL2(c, block, true, false, shared)
			m.fillL1(c, block, write, shared)
			if write {
				m.busWrite(c, block)
			}
			return cfg.L1Cycles + cfg.L2Cycles + cfg.SnoopCycles
		}
	}

	// LLC via the inclusion controller.
	m.ctx.Now = uint64(c.cycles)
	r := m.ctrl.Fetch(m.ctx, block)
	if r.Loop {
		m.loopFills++
	}
	if !r.Hit && m.bus != nil {
		m.bus.OnLLCMiss()
	}
	m.installL2(c, block, write, r.Loop && !write, shared)
	m.fillL1(c, block, write, shared)
	if write && shared {
		m.busWrite(c, block)
	}
	m.prefetch(c, block)
	return cfg.L1Cycles + cfg.L2Cycles + r.Lat
}

// prefetch issues next-line prefetches into the L2 after a demand miss.
// Prefetches run through the inclusion controller like demand fetches
// (they cost LLC energy and bank time) but never stall the core. On a
// coherent machine each one snoops first, as a demand read miss does: a
// peer's dirty copy is supplied cache-to-cache without an LLC fetch, and
// peers holding the block mark it shared. They stop at the last block
// of the address space instead of running past it.
func (m *machine) prefetch(c *coreState, block uint64) {
	for d := 1; d <= m.cfg.PrefetchDegree; d++ {
		pb := block + uint64(d)
		if pb > math.MaxUint64/uint64(m.cfg.BlockBytes) {
			break
		}
		if c.l2.Probe(pb) >= 0 || c.l1.Probe(pb) >= 0 {
			continue
		}
		m.ctx.Met.Prefetches++
		shared := false
		if m.bus != nil {
			res := m.bus.OnMiss(c.id, pb)
			shared = res.SharedElsewhere
			if res.SuppliedDirty {
				m.ctx.Met.SnoopDirtyTransfers++
				m.installL2(c, pb, true, false, shared)
				continue
			}
		}
		m.ctx.Now = uint64(c.cycles)
		r := m.ctrl.Fetch(m.ctx, pb)
		if r.Loop {
			m.loopFills++
		}
		if !r.Hit && m.bus != nil {
			m.bus.OnLLCMiss()
		}
		m.installL2(c, pb, false, r.Loop, shared)
	}
}

// onWriteHit handles a store that hit a private-cache line: shared copies
// elsewhere are invalidated, and the L2 duplicate's loop-bit is cleared.
func (m *machine) onWriteHit(c *coreState, block uint64, l *cache.Meta) {
	if l.Shared() {
		m.busWrite(c, block)
		l.SetShared(false)
	}
	if w := c.l2.Probe(block); w >= 0 {
		c.l2.Meta(c.l2.SetOf(block), w).SetLoop(false)
	}
}

// busWrite broadcasts a write-invalidation for a shared block.
func (m *machine) busWrite(c *coreState, block uint64) {
	if m.bus != nil {
		m.bus.OnWriteShared(c.id, block)
	}
}

// fillL1 installs a block into the L1, writing back the victim into the
// L2 (allocating there if needed, since the L2 is non-inclusive of L1).
// The L1 must not hold the block: every caller has just missed in it,
// and nothing in between adds the block.
func (m *machine) fillL1(c *coreState, block uint64, write, shared bool) {
	set := c.l1.SetOf(block)
	way := c.l1.LRUVictim(set)
	if v, ok := c.l1.Evict(set, way); ok && v.Dirty {
		m.writebackL1Victim(c, v)
	}
	c.l1.InsertAt(set, way, block, write, false)
	c.l1.Meta(set, way).SetShared(shared)
}

// writebackL1Victim merges a dirty L1 victim into the L2.
func (m *machine) writebackL1Victim(c *coreState, v cache.Line) {
	if w := c.l2.Probe(v.Tag); w >= 0 {
		set := c.l2.SetOf(v.Tag)
		l := c.l2.Meta(set, w)
		l.SetDirty(true)
		l.SetLoop(false)
		c.l2.Touch(set, w)
		return
	}
	// The L2 no longer holds the block (non-inclusive): allocate it.
	m.installL2(c, v.Tag, true, false, v.Shared)
}

// installL2 places a block into the L2, handing the victim to the
// inclusion controller. The L2 must not hold the block: every caller
// has just missed in it, and nothing in between adds the block.
func (m *machine) installL2(c *coreState, block uint64, dirty, loop, shared bool) {
	set := c.l2.SetOf(block)
	way := c.l2.LRUVictim(set)
	if v, ok := c.l2.Evict(set, way); ok {
		m.onL2Evict(c, v)
	}
	c.l2.InsertAt(set, way, block, dirty, loop)
	c.l2.Meta(set, way).SetShared(shared)
}

// onL2Evict routes an L2 victim to the inclusion controller.
func (m *machine) onL2Evict(c *coreState, v cache.Line) {
	countL2Victim(m.ctx.Met, v.Dirty)
	if m.ctx.Prof != nil {
		m.ctx.Prof.OnL2Evict(v.Tag, v.Dirty)
	}
	m.ctx.Now = uint64(c.cycles)
	m.ctrl.EvictL2(m.ctx, v)
}

// countL2Victim counts one L2 eviction by its dirtiness.
func countL2Victim(met *core.Metrics, dirty bool) {
	met.L2Evictions++
	if dirty {
		met.L2DirtyEvictions++
	} else {
		met.L2CleanEvictions++
	}
}

// backInvalidate enforces strict inclusion: every upper-level copy of the
// block is removed; reports whether a dirty copy existed.
func (m *machine) backInvalidate(block uint64) bool {
	dirty := false
	for _, c := range m.cores {
		if l, ok := c.l1.Invalidate(block); ok && l.Dirty {
			dirty = true
		}
		if l, ok := c.l2.Invalidate(block); ok && l.Dirty {
			dirty = true
		}
	}
	return dirty
}

// corePeer adapts a coreState to the coherence.Peer interface.
type corePeer coreState

// ProbeBlock implements coherence.Peer.
func (p *corePeer) ProbeBlock(block uint64, downgrade bool) (found, dirty bool) {
	c := (*coreState)(p)
	if w := c.l1.Probe(block); w >= 0 {
		l := c.l1.Meta(c.l1.SetOf(block), w)
		found = true
		if l.Dirty() {
			dirty = true
			if downgrade {
				l.SetDirty(false)
			}
		}
		l.SetShared(true)
	}
	if w := c.l2.Probe(block); w >= 0 {
		l := c.l2.Meta(c.l2.SetOf(block), w)
		found = true
		if l.Dirty() {
			dirty = true
			if downgrade {
				l.SetDirty(false)
			}
		}
		l.SetShared(true)
	}
	return found, dirty
}

// DropBlock implements coherence.Peer.
func (p *corePeer) DropBlock(block uint64) {
	c := (*coreState)(p)
	c.l1.Invalidate(block)
	c.l2.Invalidate(block)
}

// result assembles the Result.
func (m *machine) result() Result {
	m.subtractBaselines()
	met := m.ctx.Met
	var maxCycles float64
	var totalInstr uint64
	ipcs := make([]float64, len(m.cores))
	throughput := 0.0
	for i, c := range m.cores {
		cycles, instrs := c.cycles, c.instrs
		if m.warmupDone {
			cycles -= m.baseCycles[i]
			instrs -= m.baseInstrs[i]
		}
		if cycles > maxCycles {
			maxCycles = cycles
		}
		totalInstr += instrs
		if cycles > 0 {
			ipcs[i] = float64(instrs) / cycles
		}
		throughput += ipcs[i]
	}
	met.Instructions = totalInstr
	met.Cycles = uint64(maxCycles)
	if m.bus != nil {
		met.SnoopProbes = m.bus.Stats.Probes
		met.SnoopTraffic = m.bus.Stats.Traffic()
	}
	res := Result{
		Policy:     m.ctrl.Name(),
		Met:        *met,
		IPCs:       ipcs,
		Throughput: throughput,
		Cycles:     met.Cycles,
		Prof:       m.ctx.Prof,
		BankOps:    append([]uint64(nil), m.ctx.Banks.Ops()...),
	}
	if m.warmupDone {
		for i := range res.BankOps {
			res.BankOps[i] -= m.baseBankOps[i]
		}
	}
	if m.bus != nil {
		res.Snoop = m.bus.Stats
	}
	if m.mem != nil {
		res.DRAM = m.mem.Stats
	}
	if totalInstr > 0 {
		res.EPI = m.ctx.E.EPI(met.Cycles, totalInstr)
	}
	res.TotalNJ = m.ctx.E.TotalNJ(met.Cycles)
	return res
}
