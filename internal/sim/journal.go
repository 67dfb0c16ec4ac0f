package sim

import (
	"repro/internal/obs/journal"
)

// JournalTelemetry builds a Telemetry that streams the run's life as
// journal events: one "interval" event per closed telemetry window
// (misses, loop-block classifications, bypasses, fills, per-window
// dynamic energy), plus "run.warmup" when the measurement window opens.
// run and traceID stamp every event for correlation with the request
// log and /v1/trace/{id}.
//
// Returns nil — telemetry fully off, the simulator pays one nil check
// per access — when no subscriber is live (j.Streaming() is one atomic
// load). Like every Telemetry, this is observation only: it never
// touches Config, memo keys, or results, so observed and unobserved
// runs stay byte-identical.
func JournalTelemetry(j *journal.Journal, run, traceID string, interval uint64) *Telemetry {
	if !j.Streaming() {
		return nil
	}
	return &Telemetry{
		Interval: interval,
		OnInterval: func(iv Interval) {
			j.Emit(journal.Event{
				Kind: "interval", Run: run, Trace: traceID,
				Fields: journal.F(
					"index", iv.Index,
					"start_cycles", iv.StartCycles,
					"end_cycles", iv.EndCycles,
					"accesses", iv.Accesses,
					"l3_accesses", iv.L3Accesses,
					"l3_misses", iv.L3Misses,
					"writebacks", iv.Writebacks,
					"fills", iv.Fills,
					"redundant_fills", iv.RedundantFills,
					"loop_blocks", iv.LoopBlocks,
					"tag_only_updates", iv.TagOnlyUpdates,
					"bypasses", iv.Bypasses,
					"dynamic_nj", iv.DynamicNJ,
				),
			})
		},
		OnWarmupEnd: func(cycles uint64) {
			j.Emit(journal.Event{
				Kind: "run.warmup", Run: run, Trace: traceID,
				Fields: journal.F("cycles", cycles),
			})
		},
	}
}
