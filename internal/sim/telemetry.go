package sim

import (
	"repro/internal/core"
	otrace "repro/internal/obs/trace"
)

// Interval is one telemetry window's counters: deltas of the machine's
// metrics over the window, plus the window's position in simulated time.
// Windows are measured in accesses (summed over cores), so a run of A
// accesses per core on C cores emits about A*C/Telemetry.Interval
// windows regardless of how the cores interleave.
type Interval struct {
	// Index numbers windows from 0 in emission order.
	Index uint64
	// StartCycles/EndCycles bound the window in simulated time (the
	// slowest core's cycle count at open/close).
	StartCycles, EndCycles uint64
	// Accesses is the number of demand references in the window.
	Accesses uint64
	// L3Accesses/L3Misses are the window's LLC traffic.
	L3Accesses, L3Misses uint64
	// Writebacks counts victim writes into the LLC (dirty + clean);
	// Fills counts demand data-fills; both are the per-interval series
	// behind the paper's Fig. 15-style write decomposition.
	Writebacks, Fills uint64
	// RedundantFills is the profiler's redundant-fill delta; zero unless
	// Config.Profile is set.
	RedundantFills uint64
	// LoopBlocks counts fetches the inclusion controller classified as
	// loop-blocks (FetchResult.Loop) in the window.
	LoopBlocks uint64
	// TagOnlyUpdates counts LAP-style tag-only writes in the window.
	TagOnlyUpdates uint64
	// Bypasses counts accesses a bypass predictor diverted around the
	// LLC in the window (dead-write bypasses, non-reused fills, and
	// dropped clean copy-backs combined).
	Bypasses uint64
	// DynamicNJ is the LLC dynamic energy dissipated in the window, in
	// nanojoules (raw meter delta — warmup baselines are subtracted only
	// in the run's final Result, not per window).
	DynamicNJ float64
}

// Telemetry is the epoch/interval observation hook for RunObserved. It
// is deliberately NOT part of Config: memo keys across the tree embed
// Config by value and rely on its comparability, which a func field
// would break at compile time. A nil *Telemetry is "no observation" —
// the simulator's hot loop then pays exactly one nil check per access.
type Telemetry struct {
	// Interval is the window length in accesses summed over cores;
	// 0 disables OnInterval (warmup/done hooks still fire).
	Interval uint64
	// OnInterval receives each closed window, including the final
	// partial one (skipped when empty).
	OnInterval func(Interval)
	// OnWarmupEnd fires once when every core has finished its warmup
	// quota (never fires when Config.WarmupAccessesPerCore is 0).
	OnWarmupEnd func(cycles uint64)
	// OnDone fires after the last access with the run's final simulated
	// cycle count (warmup included — this is timeline time, not the
	// baseline-subtracted Result.Cycles).
	OnDone func(cycles uint64)
}

// telemetryState is the machine-side bookkeeping for one Telemetry.
type telemetryState struct {
	cfg      *Telemetry
	idx      uint64
	accSeen  uint64
	winStart uint64
	last     core.Metrics
	lastLoop uint64
	lastRed  uint64
	lastDyn  float64
}

// maxCycles is the slowest core's raw cycle count — the timeline clock.
func (m *machine) maxCycles() uint64 {
	var max float64
	for _, c := range m.cores {
		if c.cycles > max {
			max = c.cycles
		}
	}
	return uint64(max)
}

// telTick advances the telemetry window after one access; called from
// the main loop only when telemetry is attached.
func (m *machine) telTick() {
	t := m.tel
	t.accSeen++
	if t.cfg.Interval > 0 && t.accSeen >= t.cfg.Interval {
		m.telFlush(false)
	}
}

// telFlush closes the current window and reports its deltas. final
// flushes the trailing partial window at end of run (skipped if empty).
func (m *machine) telFlush(final bool) {
	t := m.tel
	if final && t.accSeen == 0 {
		return
	}
	if t.cfg.Interval == 0 && final {
		return
	}
	end := m.maxCycles()
	met := m.ctx.Met
	iv := Interval{
		Index:          t.idx,
		StartCycles:    t.winStart,
		EndCycles:      end,
		Accesses:       t.accSeen,
		L3Accesses:     met.L3Accesses - t.last.L3Accesses,
		L3Misses:       met.L3Misses - t.last.L3Misses,
		Writebacks:     (met.WritesDirty + met.WritesClean) - (t.last.WritesDirty + t.last.WritesClean),
		Fills:          met.WritesFill - t.last.WritesFill,
		LoopBlocks:     m.loopFills - t.lastLoop,
		TagOnlyUpdates: met.TagOnlyUpdates - t.last.TagOnlyUpdates,
		Bypasses:       (met.BypassedWrites + met.BypassedFills) - (t.last.BypassedWrites + t.last.BypassedFills),
	}
	if p := m.ctx.Prof; p != nil {
		iv.RedundantFills = p.RedundantFills - t.lastRed
		t.lastRed = p.RedundantFills
	}
	if e := m.ctx.E; e != nil {
		dyn := e.DynamicNJ()
		iv.DynamicNJ = dyn - t.lastDyn
		t.lastDyn = dyn
	}
	t.last = *met
	t.lastLoop = m.loopFills
	t.idx++
	t.accSeen = 0
	t.winStart = end
	if t.cfg.OnInterval != nil {
		t.cfg.OnInterval(iv)
	}
}

// telWarmupEnd resets profiler deltas (maybeEndWarmup swaps in a fresh
// profiler) and fires the warmup hook.
func (m *machine) telWarmupEnd() {
	t := m.tel
	t.lastRed = 0
	if t.cfg.OnWarmupEnd != nil {
		t.cfg.OnWarmupEnd(m.maxCycles())
	}
}

// TraceTelemetry builds a Telemetry that renders the run as a
// simulated-time timeline on tr: a "run" span covering the whole run on
// its own track (named after the run), a nested "warmup" span, one
// nested "epoch" span per interval, and per-interval counter samples
// (accesses, misses, writebacks, fills, redundant_fills, loop_blocks,
// bypasses)
// at each window close. Returns nil — telemetry fully off — when the
// tracer is nil or disabled.
func TraceTelemetry(tr *otrace.Tracer, name string, interval uint64) *Telemetry {
	if !tr.Enabled() {
		return nil
	}
	runID := tr.NextID()
	tr.NameTrack(otrace.PidSim, runID, name)
	warmupEnd := int64(-1)
	return &Telemetry{
		Interval: interval,
		OnInterval: func(iv Interval) {
			id := tr.NextID()
			tr.Emit(otrace.Event{
				Phase: otrace.PhaseSpan, Name: "epoch", Pid: otrace.PidSim,
				Track: runID, TS: int64(iv.StartCycles),
				Dur: int64(iv.EndCycles - iv.StartCycles),
				ID:  id, Parent: runID,
				Attrs: []otrace.Attr{
					otrace.Uint("index", iv.Index),
					otrace.Uint("accesses", iv.Accesses),
				},
			})
			ts := int64(iv.EndCycles)
			for _, c := range []struct {
				series string
				v      uint64
			}{
				{"accesses", iv.Accesses},
				{"misses", iv.L3Misses},
				{"writebacks", iv.Writebacks},
				{"fills", iv.Fills},
				{"redundant_fills", iv.RedundantFills},
				{"loop_blocks", iv.LoopBlocks},
				{"bypasses", iv.Bypasses},
			} {
				tr.Emit(otrace.Event{
					Phase: otrace.PhaseCounter, Name: c.series,
					Pid: otrace.PidSim, Track: runID, TS: ts,
					Attrs: []otrace.Attr{otrace.Uint(c.series, c.v)},
				})
			}
		},
		OnWarmupEnd: func(cycles uint64) { warmupEnd = int64(cycles) },
		OnDone: func(cycles uint64) {
			// The warmup span always exists so timelines have a stable
			// shape; zero-length when the run had no warmup phase.
			w := warmupEnd
			if w < 0 {
				w = 0
			}
			tr.Emit(otrace.Event{
				Phase: otrace.PhaseSpan, Name: "warmup", Pid: otrace.PidSim,
				Track: runID, TS: 0, Dur: w,
				ID: tr.NextID(), Parent: runID,
			})
			tr.Emit(otrace.Event{
				Phase: otrace.PhaseSpan, Name: "run", Pid: otrace.PidSim,
				Track: runID, TS: 0, Dur: int64(cycles), ID: runID,
				Attrs: []otrace.Attr{otrace.Str("name", name)},
			})
		},
	}
}

// EventTelemetry builds a Telemetry that streams the run's life as
// instant events on tr: one "interval" event per closed window, carrying
// every Interval field, and "run.warmup" when the measurement window
// opens. run and traceID stamp every event as the "run" and "trace_id"
// attrs, for correlation with the request log and /v1/trace/{id}.
//
// Returns nil — telemetry fully off — unless tr has a live subscriber
// (tr.Streaming() is one atomic load). It observes only, so streamed
// and unstreamed runs stay byte-identical.
func EventTelemetry(tr *otrace.Tracer, run, traceID string, interval uint64) *Telemetry {
	if !tr.Streaming() {
		return nil
	}
	return &Telemetry{
		Interval: interval,
		OnInterval: func(iv Interval) {
			tr.Instant("interval", otrace.Str("run", run), otrace.Str("trace_id", traceID),
				otrace.Uint("index", iv.Index),
				otrace.Uint("start_cycles", iv.StartCycles),
				otrace.Uint("end_cycles", iv.EndCycles),
				otrace.Uint("accesses", iv.Accesses),
				otrace.Uint("l3_accesses", iv.L3Accesses),
				otrace.Uint("l3_misses", iv.L3Misses),
				otrace.Uint("writebacks", iv.Writebacks),
				otrace.Uint("fills", iv.Fills),
				otrace.Uint("redundant_fills", iv.RedundantFills),
				otrace.Uint("loop_blocks", iv.LoopBlocks),
				otrace.Uint("tag_only_updates", iv.TagOnlyUpdates),
				otrace.Uint("bypasses", iv.Bypasses),
				otrace.Float("dynamic_nj", iv.DynamicNJ))
		},
		OnWarmupEnd: func(cycles uint64) {
			tr.Instant("run.warmup", otrace.Str("run", run), otrace.Str("trace_id", traceID),
				otrace.Uint("cycles", cycles))
		},
	}
}
