package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// Engine is the stepwise execution surface behind sampled interval
// simulation (internal/sample). Where Run drives a machine from first
// access to last, the Engine exposes the three motions the sampled
// executor composes:
//
//   - RunFunctional(n): advance every core n accesses with the clock
//     frozen — cache state (tags, recency, loop bits, dueling) updates
//     through the normal controller paths, event counters keep
//     counting, but energy metering and bank/memory timing are off.
//   - RunDetailed(n): advance every core n accesses under the full
//     timing model, in the exact serial scheduling order.
//   - SetSources: jump the machine to a different trace position in
//     O(1) by swapping in source forks captured during profiling. Cache
//     state is deliberately kept (stale but warm); functional warmup
//     intervals re-freshen it before measurements resume.
//
// Sampled runs get their speedup from skipping intervals; every window
// walks the cores' private levels directly, as Run does.
type Engine struct {
	m *machine
	// scratch is the functional loop's decode buffer: functional windows
	// read sources directly (bypassing each core's buffered decode) so
	// that interval boundaries land exactly on source positions and
	// ForkSources snapshots are aligned.
	scratch [accessBatch]trace.Access
	rem     []uint64
}

// NewEngine assembles a machine for stepwise execution. tel, when
// non-nil, receives one Interval per RunFunctional/RunDetailed window
// through the same telemetry path RunObserved uses. It panics on
// configuration misuse (wrong source count), like Run.
func NewEngine(cfg Config, ctrl core.Controller, srcs []trace.Source, tel *Telemetry) *Engine {
	if len(srcs) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d sources for %d cores", len(srcs), cfg.Cores))
	}
	m := build(cfg, ctrl, srcs)
	if tel != nil {
		m.tel = &telemetryState{cfg: tel}
	}
	return &Engine{m: m, rem: make([]uint64, cfg.Cores)}
}

// ForkSources captures an independent fork of every core's source at
// its current position, or ok=false when any source does not support
// trace.Forker. It must be called on an interval boundary of the
// functional loop (no buffered decode in flight); the profiling pass
// only forks there.
func (e *Engine) ForkSources() ([]trace.Source, bool) {
	out := make([]trace.Source, len(e.m.cores))
	for i, c := range e.m.cores {
		if c.bufPos < len(c.buf) {
			panic("sim: ForkSources with buffered accesses in flight")
		}
		s, ok := trace.ForkSource(c.src)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
}

// SetSources jumps the machine to a different trace position: every
// core's stream is replaced and its decode state reset. Cache and
// controller state are untouched.
func (e *Engine) SetSources(srcs []trace.Source) {
	if len(srcs) != len(e.m.cores) {
		panic(fmt.Sprintf("sim: SetSources got %d sources for %d cores", len(srcs), len(e.m.cores)))
	}
	for i, c := range e.m.cores {
		c.src = srcs[i]
		c.buf = c.buf[:0]
		c.bufPos = 0
		c.srcEOF = false
		c.done = false
	}
}

// RunFunctional advances every active core up to perCore accesses in
// functional warmup mode, interleaving cores in accessBatch-sized
// chunks, and returns the total number of accesses executed (short only
// when sources exhaust). An attached Telemetry receives the window as
// one Interval.
func (e *Engine) RunFunctional(perCore uint64) uint64 {
	m := e.m
	m.ctx.Functional = true
	var total uint64
	for i, c := range m.cores {
		if c.done {
			e.rem[i] = 0
		} else {
			e.rem[i] = perCore
		}
	}
	for {
		progressed := false
		for i, c := range m.cores {
			if c.done || e.rem[i] == 0 {
				continue
			}
			// Drain any buffered decode left over from a detailed window
			// before touching the source directly.
			for c.bufPos < len(c.buf) && e.rem[i] > 0 {
				m.stepFunctional(c, c.buf[c.bufPos])
				c.bufPos++
				e.rem[i]--
				total++
				progressed = true
			}
			if e.rem[i] == 0 {
				continue
			}
			if c.srcEOF {
				c.done = true
				continue
			}
			chunk := uint64(len(e.scratch))
			if e.rem[i] < chunk {
				chunk = e.rem[i]
			}
			n := trace.FillBatch(c.src, e.scratch[:chunk])
			for j := 0; j < n; j++ {
				m.stepFunctional(c, e.scratch[j])
			}
			e.rem[i] -= uint64(n)
			total += uint64(n)
			if n > 0 {
				progressed = true
			}
			if uint64(n) < chunk {
				c.srcEOF = true
				c.done = true
			}
		}
		if !progressed {
			break
		}
		pending := false
		for i, c := range m.cores {
			if e.rem[i] > 0 && !c.done {
				pending = true
				break
			}
		}
		if !pending {
			break
		}
	}
	m.ctx.Functional = false
	if m.tel != nil && total > 0 {
		m.tel.accSeen += total
		m.telFlush(false)
	}
	return total
}

// RunDetailed advances every active core up to perCore accesses under
// the full timing model, in the serial scheduling order (ascending
// pre-access cycle count), and returns the total executed. An attached
// Telemetry receives the window as one Interval.
func (e *Engine) RunDetailed(perCore uint64) uint64 {
	m := e.m
	var total uint64
	for i, c := range m.cores {
		if c.done {
			e.rem[i] = 0
		} else {
			e.rem[i] = perCore
		}
	}
	for {
		var next *coreState
		ni := -1
		for i, c := range m.cores {
			if c.done || e.rem[i] == 0 {
				continue
			}
			if next == nil || c.cycles < next.cycles {
				next, ni = c, i
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
		e.rem[ni]--
		total++
	}
	if m.tel != nil && total > 0 {
		m.tel.accSeen += total
		m.telFlush(false)
	}
	return total
}

// Exhausted reports whether every core's source has ended.
func (e *Engine) Exhausted() bool { return e.m.allDone() }

// MachineState is a deep copy of every cache in the machine: each
// core's private L1 and L2 plus the shared L3. The profiling pass
// captures MachineStates at interval boundaries so sampled replays can
// restore the true warm hierarchy before measuring, instead of
// re-warming an 8 MB LLC from whatever a source jump left stale.
// Controller-internal state (duel counters, loop tables) is not
// captured: it is policy-specific, small, and re-warms within the
// functional warmup intervals that precede every measurement.
type MachineState struct {
	l1, l2 []*cache.State
	l3     *cache.State
}

// SnapshotState copies the machine's cache hierarchy into a detached
// MachineState, recycling reuse's arrays when shapes match.
func (e *Engine) SnapshotState(reuse *MachineState) *MachineState {
	s := reuse
	if s == nil || len(s.l1) != len(e.m.cores) {
		s = &MachineState{
			l1: make([]*cache.State, len(e.m.cores)),
			l2: make([]*cache.State, len(e.m.cores)),
		}
	}
	for i, c := range e.m.cores {
		s.l1[i] = c.l1.Snapshot(s.l1[i])
		s.l2[i] = c.l2.Snapshot(s.l2[i])
	}
	s.l3 = e.m.ctx.L3.Snapshot(s.l3)
	return s
}

// RestoreState overwrites the machine's cache hierarchy from a
// snapshot captured on an identically-configured machine.
func (e *Engine) RestoreState(s *MachineState) {
	if len(s.l1) != len(e.m.cores) {
		panic(fmt.Sprintf("sim: restoring %d-core state into %d-core machine", len(s.l1), len(e.m.cores)))
	}
	for i, c := range e.m.cores {
		c.l1.Restore(s.l1[i])
		c.l2.Restore(s.l2[i])
	}
	e.m.ctx.L3.Restore(s.l3)
}

// Counters is a point-in-time snapshot of every accumulator a sampled
// run extrapolates: event counts, energy-meter activity, per-core
// progress, and LLC bank operations. The zero value is a valid
// accumulator for AddScaled.
type Counters struct {
	Met          core.Metrics
	TagAccesses  uint64
	RegionReads  [2]uint64
	RegionWrites [2]uint64
	Cycles       []float64
	Instrs       []uint64
	BankOps      []uint64
}

// Counters snapshots the machine's accumulators.
func (e *Engine) Counters() Counters {
	m := e.m
	c := Counters{
		Met:         *m.ctx.Met,
		TagAccesses: m.ctx.E.TagAccesses,
		Cycles:      make([]float64, len(m.cores)),
		Instrs:      make([]uint64, len(m.cores)),
		BankOps:     append([]uint64(nil), m.ctx.Banks.Ops()...),
	}
	for i := range m.ctx.E.Regions {
		c.RegionReads[i] = m.ctx.E.Regions[i].Reads
		c.RegionWrites[i] = m.ctx.E.Regions[i].Writes
	}
	for i, cs := range m.cores {
		c.Cycles[i] = cs.cycles
		c.Instrs[i] = cs.instrs
	}
	return c
}

// Clone returns a deep copy with fresh slices. Assigning a Counters
// value copies the struct but shares the slice backing; Clone before
// mutating a snapshot that is still needed elsewhere.
func (c Counters) Clone() Counters {
	c.Cycles = append([]float64(nil), c.Cycles...)
	c.Instrs = append([]uint64(nil), c.Instrs...)
	c.BankOps = append([]uint64(nil), c.BankOps...)
	return c
}

// Sub subtracts o from c elementwise, turning two snapshots into the
// delta of the window between them.
func (c *Counters) Sub(o *Counters) {
	c.Met.Sub(&o.Met)
	c.TagAccesses -= o.TagAccesses
	for i := range c.RegionReads {
		c.RegionReads[i] -= o.RegionReads[i]
		c.RegionWrites[i] -= o.RegionWrites[i]
	}
	for i := range c.Cycles {
		c.Cycles[i] -= o.Cycles[i]
		c.Instrs[i] -= o.Instrs[i]
	}
	for i := range c.BankOps {
		c.BankOps[i] -= o.BankOps[i]
	}
}

// AddScaled accumulates k copies of o into c — the extrapolation step:
// one representative interval's delta is added once per interval in its
// cluster. A zero-valued receiver sizes its slices from o.
func (c *Counters) AddScaled(o *Counters, k uint64) {
	if c.Cycles == nil {
		c.Cycles = make([]float64, len(o.Cycles))
		c.Instrs = make([]uint64, len(o.Instrs))
		c.BankOps = make([]uint64, len(o.BankOps))
	}
	c.Met.AddScaled(&o.Met, k)
	c.TagAccesses += o.TagAccesses * k
	for i := range c.RegionReads {
		c.RegionReads[i] += o.RegionReads[i] * k
		c.RegionWrites[i] += o.RegionWrites[i] * k
	}
	for i := range c.Cycles {
		c.Cycles[i] += o.Cycles[i] * float64(k)
		c.Instrs[i] += o.Instrs[i] * k
	}
	for i := range c.BankOps {
		c.BankOps[i] += o.BankOps[i] * k
	}
}

// Finalize installs the extrapolated totals into the machine and
// assembles the Result through the same path exact runs use, so EPI,
// IPC, and throughput are computed by identical code.
func (e *Engine) Finalize(total Counters) Result {
	m := e.m
	*m.ctx.Met = total.Met
	m.ctx.E.TagAccesses = total.TagAccesses
	for i := range m.ctx.E.Regions {
		m.ctx.E.Regions[i].Reads = total.RegionReads[i]
		m.ctx.E.Regions[i].Writes = total.RegionWrites[i]
	}
	for i, c := range m.cores {
		c.cycles = total.Cycles[i]
		c.instrs = total.Instrs[i]
	}
	m.warmupDone = false
	res := m.result()
	res.BankOps = append([]uint64(nil), total.BankOps...)
	return res
}
