package sim

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	otrace "repro/internal/obs/trace"
)

// TestTelemetryIntervalsSumToTotals pins the delta accounting: the
// per-interval counters, summed over every window, must equal the run's
// final raw metrics, and windows must tile the run without gaps.
func TestTelemetryIntervalsSumToTotals(t *testing.T) {
	cfg := smallCfg()
	const perCore = 20000
	var ivs []Interval
	tel := &Telemetry{
		Interval:   5000,
		OnInterval: func(iv Interval) { ivs = append(ivs, iv) },
	}
	var done uint64
	tel.OnDone = func(cycles uint64) { done = cycles }

	r := RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, perCore), tel)

	if len(ivs) == 0 {
		t.Fatal("no intervals emitted")
	}
	wantWindows := 2 * perCore / 5000
	if len(ivs) != wantWindows {
		t.Fatalf("got %d windows, want %d", len(ivs), wantWindows)
	}
	var acc, misses, l3acc, wb, fills, tagOnly uint64
	var prevEnd uint64
	for i, iv := range ivs {
		if iv.Index != uint64(i) {
			t.Fatalf("window %d has index %d", i, iv.Index)
		}
		if iv.StartCycles != prevEnd {
			t.Fatalf("window %d starts at %d, previous ended at %d", i, iv.StartCycles, prevEnd)
		}
		if iv.EndCycles < iv.StartCycles {
			t.Fatalf("window %d runs backwards: [%d, %d]", i, iv.StartCycles, iv.EndCycles)
		}
		prevEnd = iv.EndCycles
		acc += iv.Accesses
		misses += iv.L3Misses
		l3acc += iv.L3Accesses
		wb += iv.Writebacks
		fills += iv.Fills
		tagOnly += iv.TagOnlyUpdates
	}
	if acc != 2*perCore {
		t.Fatalf("interval accesses sum to %d, want %d", acc, 2*perCore)
	}
	// No warmup in this run, so Result metrics are the raw totals the
	// intervals decompose.
	if misses != r.Met.L3Misses {
		t.Fatalf("interval misses sum to %d, run reports %d", misses, r.Met.L3Misses)
	}
	if l3acc != r.Met.L3Accesses {
		t.Fatalf("interval L3 accesses sum to %d, run reports %d", l3acc, r.Met.L3Accesses)
	}
	if wb != r.Met.WritesDirty+r.Met.WritesClean {
		t.Fatalf("interval writebacks sum to %d, run reports %d", wb, r.Met.WritesDirty+r.Met.WritesClean)
	}
	if fills != r.Met.WritesFill {
		t.Fatalf("interval fills sum to %d, run reports %d", fills, r.Met.WritesFill)
	}
	if tagOnly != r.Met.TagOnlyUpdates {
		t.Fatalf("interval tag-only sum to %d, run reports %d", tagOnly, r.Met.TagOnlyUpdates)
	}
	if done == 0 || done != prevEnd {
		t.Fatalf("OnDone cycles = %d, want final window end %d", done, prevEnd)
	}
}

// TestTelemetryObservedMatchesUnobserved: attaching telemetry must not
// perturb the simulation itself.
func TestTelemetryObservedMatchesUnobserved(t *testing.T) {
	cfg := smallCfg()
	plain := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 15000))
	observed := RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 15000),
		&Telemetry{Interval: 1000, OnInterval: func(Interval) {}})
	if plain.Met != observed.Met {
		t.Fatalf("telemetry changed the simulation:\nplain    %+v\nobserved %+v", plain.Met, observed.Met)
	}
}

// TestTelemetryWarmupHook: the warmup hook fires once, before any
// post-warmup window closes beyond it, and never on warmup-free runs.
func TestTelemetryWarmupHook(t *testing.T) {
	cfg := smallCfg()
	cfg.WarmupAccessesPerCore = 5000
	var warmups int
	var warmupCycles uint64
	tel := &Telemetry{
		Interval:    4000,
		OnInterval:  func(Interval) {},
		OnWarmupEnd: func(c uint64) { warmups++; warmupCycles = c },
	}
	RunObserved(cfg, core.NewNonInclusive(), sourcesFor(loopy(), 2, 30000), tel)
	if warmups != 1 {
		t.Fatalf("warmup hook fired %d times, want 1", warmups)
	}
	if warmupCycles == 0 {
		t.Fatal("warmup hook reported zero cycles")
	}

	warmups = 0
	cfg.WarmupAccessesPerCore = 0
	RunObserved(cfg, core.NewNonInclusive(), sourcesFor(loopy(), 2, 10000), tel)
	if warmups != 0 {
		t.Fatal("warmup hook fired on a warmup-free run")
	}
}

// TestTraceTelemetryTimeline runs a small simulation through the tracer
// bridge and asserts the exported timeline shape: a run span on its own
// named track, a nested warmup span, nested epoch spans, and counter
// samples for the per-interval series.
func TestTraceTelemetryTimeline(t *testing.T) {
	tr := otrace.New(0)
	cfg := smallCfg()
	cfg.WarmupAccessesPerCore = 4000
	tel := TraceTelemetry(tr, "LAP", 8000)
	if tel == nil {
		t.Fatal("enabled tracer produced nil telemetry")
	}
	RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 20000), tel)

	var runEv, warmEv *otrace.Event
	epochs := 0
	counters := map[string]int{}
	evs := tr.Events()
	for i := range evs {
		ev := &evs[i]
		if ev.Pid != otrace.PidSim {
			t.Fatalf("simulated-time event on pid %d: %+v", ev.Pid, ev)
		}
		switch {
		case ev.Phase == otrace.PhaseSpan && ev.Name == "run":
			runEv = ev
		case ev.Phase == otrace.PhaseSpan && ev.Name == "warmup":
			warmEv = ev
		case ev.Phase == otrace.PhaseSpan && ev.Name == "epoch":
			epochs++
		case ev.Phase == otrace.PhaseCounter:
			counters[ev.Name]++
		}
	}
	if runEv == nil || warmEv == nil {
		t.Fatalf("missing run/warmup span (run=%v warmup=%v)", runEv, warmEv)
	}
	if epochs == 0 {
		t.Fatal("no epoch spans")
	}
	if warmEv.Parent != runEv.ID || warmEv.Dur <= 0 || warmEv.Dur > runEv.Dur {
		t.Fatalf("warmup span not nested in run: warmup=%+v run=%+v", warmEv, runEv)
	}
	for _, series := range []string{"accesses", "misses", "writebacks", "fills", "redundant_fills", "loop_blocks"} {
		if counters[series] != epochs {
			t.Fatalf("series %q has %d samples for %d epochs", series, counters[series], epochs)
		}
	}

	// Disabled tracer → nil telemetry, so observed call sites need no
	// branching of their own.
	tr.SetEnabled(false)
	if TraceTelemetry(tr, "x", 100) != nil {
		t.Fatal("disabled tracer produced telemetry")
	}
	if TraceTelemetry(nil, "x", 100) != nil {
		t.Fatal("nil tracer produced telemetry")
	}
}

// TestEventTelemetry runs a small simulation through the events sink
// and checks the streamed shape: one "interval" instant per telemetry
// window carrying all 13 Interval fields (the per-window dynamic energy
// included), one "run.warmup", and the run and trace ID on every event;
// and the gate: no subscriber, no telemetry.
func TestEventTelemetry(t *testing.T) {
	tr := otrace.New(256)
	if EventTelemetry(tr, "w|p", "req-000001", 1000) != nil {
		t.Fatal("a tracer without subscribers produced telemetry")
	}
	if EventTelemetry(nil, "w|p", "req-000001", 1000) != nil {
		t.Fatal("a nil tracer produced telemetry")
	}

	sub := tr.Subscribe(0, 0, otrace.Filter{})
	defer sub.Close()
	cfg := smallCfg()
	cfg.WarmupAccessesPerCore = 4000
	tel := EventTelemetry(tr, "w|p", "req-000001", 8000)
	if tel == nil {
		t.Fatal("a subscribed tracer produced no telemetry")
	}
	r := RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 20000), tel)
	if r.Met.L3Accesses == 0 {
		t.Fatal("degenerate run")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var evs []otrace.Event
	wantIntervals := 2 * 20000 / 8000
	for len(evs) < wantIntervals+1 {
		batch, _, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v (have %d events)", err, len(evs))
		}
		evs = append(evs, batch...)
	}

	intervals, warmups := 0, 0
	var accSum uint64
	var dynSum float64
	for _, e := range evs {
		rec := e.Record()
		if e.Phase != otrace.PhaseInstant || rec.Attrs["run"] != "w|p" || rec.Attrs["trace_id"] != "req-000001" {
			t.Fatalf("event missing correlation: %+v", rec)
		}
		switch e.Name {
		case "interval":
			if len(rec.Attrs) != 13+2 {
				t.Fatalf("interval event has %d attrs, want 15: %v", len(rec.Attrs), rec.Attrs)
			}
			if rec.Attrs["index"].(uint64) != uint64(intervals) {
				t.Fatalf("interval %d has index %v", intervals, rec.Attrs["index"])
			}
			accSum += rec.Attrs["accesses"].(uint64)
			dynSum += rec.Attrs["dynamic_nj"].(float64)
			intervals++
		case "run.warmup":
			warmups++
			if rec.Attrs["cycles"].(uint64) == 0 {
				t.Fatal("warmup event with zero cycles")
			}
		default:
			t.Fatalf("unexpected event %q", e.Name)
		}
	}
	if intervals != wantIntervals {
		t.Fatalf("got %d interval events, want %d", intervals, wantIntervals)
	}
	if warmups != 1 {
		t.Fatalf("got %d warmup events, want 1", warmups)
	}
	if accSum != 2*20000 {
		t.Fatalf("interval accesses sum to %d, want %d", accSum, 2*20000)
	}
	if dynSum <= 0 {
		t.Fatal("per-interval dynamic energy never accumulated")
	}
}

// TestEventTelemetryObservedMatchesUnobserved: streaming never perturbs
// results, like every other Telemetry.
func TestEventTelemetryObservedMatchesUnobserved(t *testing.T) {
	tr := otrace.New(64)
	sub := tr.Subscribe(64, 0, otrace.Filter{})
	defer sub.Close()
	cfg := smallCfg()
	plain := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 15000))
	observed := RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 15000),
		EventTelemetry(tr, "w|p", "", 1000))
	if plain.Met != observed.Met {
		t.Fatalf("event streaming changed the simulation:\nplain    %+v\nobserved %+v", plain.Met, observed.Met)
	}
}
