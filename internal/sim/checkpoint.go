package sim

// Machine checkpointing: serialize the *complete* mutable state of a
// mid-run machine — caches, controller, counters, timing horizons, and
// per-core progress — so a later process can rebuild the same config
// and sources, restore the snapshot, skip each source forward by the
// accesses its core already executed, and continue the serial loop as
// if nothing happened. Resumed results are byte-identical to an
// uninterrupted run because the snapshot is observational: it is taken
// between two accesses of the unchanged serial schedule and restores
// every value that schedule reads, including the float64 cycle counts
// bit-for-bit.
//
// What is deliberately NOT serialized: per-core decode buffers (the
// buffered-but-unexecuted accesses re-decode identically from the
// deterministic sources), and the state behind ineligible
// configurations (coherence buses, per-block profilers, DRAM row
// buffers, telemetry windows) — those configurations silently run cold
// instead.

import (
	"fmt"

	"repro/internal/checkpoint/wire"
	"repro/internal/core"
	"repro/internal/trace"
)

// machinePayloadVersion pins the layout of the machine-state payload
// inside a checkpoint entry (the store's FormatVersion pins the
// envelope).
const machinePayloadVersion = 2

// CheckpointSink receives one encoded machine snapshot per checkpoint
// boundary. interval is the boundary ordinal (seen/CheckpointEvery),
// accesses the total executed by then. payload aliases an internal
// buffer and is only valid for the duration of the call; persist it
// (the checkpoint store copies) before returning. Sink errors are the
// sink's problem by design: durability failures must never fail a run.
type CheckpointSink func(interval, accesses uint64, payload []byte)

// ckState is the live checkpoint schedule attached to a machine.
type ckState struct {
	every uint64
	seen  uint64 // accesses executed so far, including a restored prefix
	next  uint64 // the access count at which the next snapshot fires
	sink  CheckpointSink
	enc   wire.Encoder
}

// checkpointableCfg reports whether this machine's full mutable state
// is covered by the codec. Ineligible configurations run cold.
func (m *machine) checkpointableCfg() bool {
	return !m.cfg.Coherent && !m.cfg.Profile && !m.cfg.UseDRAM &&
		m.cfg.SampleInterval == 0 && m.tel == nil && core.CanCheckpoint(m.ctrl)
}

// RunCheckpointed is Run with durability: when resume is non-empty the
// machine state is restored from it (the caller guarantees, via digest
// keying, that cfg, controller, and sources match the run that wrote
// it), and when sink is non-nil and the configuration is eligible a
// snapshot is delivered every cfg.CheckpointEvery executed accesses.
// The returned result is byte-identical to Run on the same inputs,
// resumed or not. An error means the resume payload could not be
// applied; the machine and sources are then in an undefined state and
// the caller must rebuild both and run cold.
func RunCheckpointed(cfg Config, ctrl core.Controller, srcs []trace.Source, resume []byte, sink CheckpointSink) (Result, error) {
	if len(srcs) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d sources for %d cores", len(srcs), cfg.Cores))
	}
	m := build(cfg, ctrl, srcs)
	if len(resume) > 0 {
		if err := m.restoreCheckpoint(resume); err != nil {
			return Result{}, err
		}
	}
	if sink != nil && cfg.CheckpointEvery > 0 && m.checkpointableCfg() {
		var seen uint64
		for _, c := range m.cores {
			seen += c.nAcc
		}
		m.ck = &ckState{
			every: cfg.CheckpointEvery,
			seen:  seen,
			next:  (seen/cfg.CheckpointEvery + 1) * cfg.CheckpointEvery,
			sink:  sink,
		}
	}
	m.loop()
	return m.result(), nil
}

// checkpointNow snapshots the machine and hands it to the sink.
func (m *machine) checkpointNow() {
	ck := m.ck
	ck.enc.Reset()
	m.encodeCheckpoint(&ck.enc)
	ck.sink(ck.seen/ck.every, ck.seen, ck.enc.Bytes())
}

// encodeCheckpoint serializes the machine's full mutable state.
func (m *machine) encodeCheckpoint(e *wire.Encoder) {
	e.Byte(machinePayloadVersion)
	e.Str(m.ctrl.Name())
	e.U64(uint64(len(m.cores)))
	for _, c := range m.cores {
		e.F64(c.cycles)
		e.U64(c.instrs)
		e.U64(c.nAcc)
		e.Bool(c.done)
	}

	// Aggregate counters and timing state.
	m.ctx.Met.EncodeState(e)
	e.U64(m.ctx.E.TagAccesses)
	e.U64(uint64(len(m.ctx.E.Regions)))
	for i := range m.ctx.E.Regions {
		e.U64(m.ctx.E.Regions[i].Reads)
		e.U64(m.ctx.E.Regions[i].Writes)
	}
	m.ctx.Banks.EncodeState(e)
	e.U64(m.loopFills)

	// Warmup baselines (zero-valued when the window has not opened).
	e.Bool(m.warmupDone)
	m.baseMet.EncodeState(e)
	e.U64(m.baseMeter.tag)
	for i := range m.baseMeter.reads {
		e.U64(m.baseMeter.reads[i])
		e.U64(m.baseMeter.writes[i])
	}
	e.F64s(m.baseCycles)
	e.U64s(m.baseInstrs)
	e.U64s(m.baseBankOps)

	// Cache hierarchy, then the controller's policy state.
	for _, c := range m.cores {
		c.l1.EncodeSnapshot(e)
		c.l2.EncodeSnapshot(e)
	}
	m.ctx.L3.EncodeSnapshot(e)
	m.ctrl.(core.StateCodec).EncodeState(e)
}

// restoreCheckpoint applies a payload written by encodeCheckpoint on an
// identically configured machine, then fast-forwards every source past
// the accesses its core already executed. Any mismatch — payload
// version, controller name, core count, cache geometry — is an error;
// the caller degrades to cold start with fresh sources.
func (m *machine) restoreCheckpoint(payload []byte) error {
	if !m.checkpointableCfg() {
		return fmt.Errorf("sim: configuration is not checkpointable")
	}
	d := wire.NewDecoder(payload)
	if v := d.Byte(); v != machinePayloadVersion {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("sim: checkpoint payload version %d, want %d", v, machinePayloadVersion)
	}
	if name := d.Str(); name != m.ctrl.Name() {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("sim: checkpoint is for controller %q, machine runs %q", name, m.ctrl.Name())
	}
	if n := d.U64(); n != uint64(len(m.cores)) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("sim: checkpoint has %d cores, machine has %d", n, len(m.cores))
	}
	for _, c := range m.cores {
		c.cycles = d.F64()
		c.instrs = d.U64()
		c.nAcc = d.U64()
		c.done = d.Bool()
	}

	if err := m.ctx.Met.DecodeState(d); err != nil {
		return err
	}
	m.ctx.E.TagAccesses = d.U64()
	if n := d.U64(); n != uint64(len(m.ctx.E.Regions)) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("sim: checkpoint has %d energy regions, machine has %d", n, len(m.ctx.E.Regions))
	}
	for i := range m.ctx.E.Regions {
		m.ctx.E.Regions[i].Reads = d.U64()
		m.ctx.E.Regions[i].Writes = d.U64()
	}
	if err := m.ctx.Banks.DecodeState(d); err != nil {
		return err
	}
	m.loopFills = d.U64()

	m.warmupDone = d.Bool()
	if err := m.baseMet.DecodeState(d); err != nil {
		return err
	}
	m.baseMeter.tag = d.U64()
	for i := range m.baseMeter.reads {
		m.baseMeter.reads[i] = d.U64()
		m.baseMeter.writes[i] = d.U64()
	}
	m.baseCycles = d.F64s()
	m.baseInstrs = d.U64s()
	m.baseBankOps = d.U64s()
	if m.warmupDone &&
		(len(m.baseCycles) != len(m.cores) || len(m.baseInstrs) != len(m.cores) ||
			len(m.baseBankOps) != len(m.ctx.Banks.Ops())) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("sim: checkpoint warmup baselines have wrong shape")
	}

	for _, c := range m.cores {
		if err := c.l1.RestoreSnapshot(d); err != nil {
			return err
		}
		if err := c.l2.RestoreSnapshot(d); err != nil {
			return err
		}
	}
	if err := m.ctx.L3.RestoreSnapshot(d); err != nil {
		return err
	}
	if err := m.ctrl.(core.StateCodec).DecodeState(d); err != nil {
		return err
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(d.Rest()) != 0 {
		return fmt.Errorf("sim: checkpoint payload has %d trailing bytes", len(d.Rest()))
	}

	// Fast-forward each (freshly rebuilt, deterministic) source past the
	// prefix its core already executed. Decode buffers start empty; any
	// accesses that were buffered-but-unexecuted at snapshot time simply
	// re-decode. A core that exhausted its stream skips short and stays
	// done via its restored flag.
	for _, c := range m.cores {
		if c.nAcc > 0 {
			trace.Skip(c.src, c.nAcc)
		}
	}
	return nil
}
