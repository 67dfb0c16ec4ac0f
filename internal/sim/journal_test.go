package sim

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/journal"
)

// TestJournalTelemetry runs a small simulation through the journal
// bridge and asserts the streamed shape: one "interval" event per
// telemetry window with delta fields (including the per-window dynamic
// energy), a "run.warmup" marker, and run/trace correlation on every
// event — plus the gating contract (no subscriber → nil telemetry).
func TestJournalTelemetry(t *testing.T) {
	j := journal.New(256, nil)
	if JournalTelemetry(j, "w|p", "req-000001", 1000) != nil {
		t.Fatal("subscriber-free journal produced telemetry")
	}
	if JournalTelemetry(nil, "w|p", "req-000001", 1000) != nil {
		t.Fatal("nil journal produced telemetry")
	}

	sub := j.Subscribe(0, 0, journal.Filter{})
	defer sub.Close()
	cfg := smallCfg()
	cfg.WarmupAccessesPerCore = 4000
	tel := JournalTelemetry(j, "w|p", "req-000001", 8000)
	if tel == nil {
		t.Fatal("subscribed journal produced nil telemetry")
	}
	r := RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 20000), tel)
	if r.Met.L3Accesses == 0 {
		t.Fatal("degenerate run")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var evs []journal.Event
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
		if e.Run != "w|p" || e.Trace != "req-000001" {
			t.Fatalf("event missing correlation: %+v", e)
		}
		switch e.Kind {
		case "interval":
			if e.Fields["index"].(uint64) != uint64(intervals) {
				t.Fatalf("interval %d has index %v", intervals, e.Fields["index"])
			}
			accSum += e.Fields["accesses"].(uint64)
			dynSum += e.Fields["dynamic_nj"].(float64)
			if _, ok := e.Fields["l3_misses"]; !ok {
				t.Fatalf("interval event missing l3_misses: %v", e.Fields)
			}
			intervals++
		case "run.warmup":
			warmups++
			if e.Fields["cycles"].(uint64) == 0 {
				t.Fatal("warmup event with zero cycles")
			}
		default:
			t.Fatalf("unexpected kind %q", e.Kind)
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

// TestJournalTelemetryObservedMatchesUnobserved: streaming must never
// perturb results — same discipline as every other Telemetry.
func TestJournalTelemetryObservedMatchesUnobserved(t *testing.T) {
	j := journal.New(64, nil)
	sub := j.Subscribe(64, 0, journal.Filter{})
	defer sub.Close()
	cfg := smallCfg()
	plain := Run(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 15000))
	observed := RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, 15000),
		JournalTelemetry(j, "w|p", "", 1000))
	if plain.Met != observed.Met {
		t.Fatalf("journal streaming changed the simulation:\nplain    %+v\nobserved %+v", plain.Met, observed.Met)
	}
}
