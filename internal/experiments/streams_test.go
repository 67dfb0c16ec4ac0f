package experiments

import (
	"reflect"
	"testing"

	memocache "repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFig14RunsAndStreamBound regenerates Fig. 14 at the Quick mix
// count (the ten Table III mixes and eight random ones) on two workers
// from an empty memo, exact and sampled, at a shorter length: which
// cells and per-mix artifacts a sweep makes does not depend on it.
//   - Each (mix, controller) cell computes once: 90 runs. Keying cells
//     by display label computed exclusive twice on the random mixes
//     ("ex" and "Exclusive"), 98 runs.
//   - Each mix's artifact is built once: 18 recordings exact, 18
//     profiles sampled (and no recording, since sampled runs never
//     replay).
//   - The artifacts resident at once stay bounded by the worker count,
//     not by the 18 mixes, and none outlives the sweep.
func TestFig14RunsAndStreamBound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval uint64
		built    interface{ Stats() memocache.Stats }
		idle     interface{ Stats() memocache.Stats }
		peak     func() int
		left     func() int
	}{
		{"exact", 0, streams, profiles, streams.peakEntries, streams.Len},
		{"sampled", 1000, profiles, streams, profiles.peakEntries, profiles.Len},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Quick()
			opt.Accesses = 5_000
			opt.Jobs = 2
			opt.SampleInterval = tc.interval
			ResetMemo()
			runs, built, idle := Stats(), tc.built.Stats(), tc.idle.Stats()
			Fig14(opt)
			if got := Stats().Computed - runs.Computed; got != 90 {
				t.Errorf("Fig. 14 computed %d runs, want 90", got)
			}
			if got := tc.built.Stats().Computed - built.Computed; got != 18 {
				t.Errorf("Fig. 14 built %d per-mix artifacts, want 18", got)
			}
			if got := tc.idle.Stats().Computed - idle.Computed; got != 0 {
				t.Errorf("Fig. 14 built %d artifacts of the other kind, want 0", got)
			}
			if peak := tc.peak(); peak < 1 || peak > opt.workers()+1 {
				t.Errorf("up to %d artifacts resident at once on %d workers, want 1..%d",
					peak, opt.workers(), opt.workers()+1)
			}
			if n := tc.left(); n != 0 {
				t.Errorf("%d artifacts outlived the sweep", n)
			}
		})
	}
}

// TestWarmReplayMatchesSerial runs one warm batch that replays and
// compares every cell with the direct walk of a serial pass, for the
// policies of Fig. 14 and Ext. DWB on a configuration pair that shares
// recordings (STT-RAM and SRAM LLCs).
func TestWarmReplayMatchesSerial(t *testing.T) {
	opt := Options{Accesses: 8_000, Seed: 2016, DuelPeriod: 40_000, Jobs: 2}
	stt := sim.DefaultConfig()
	sram := stt.WithSRAML3()
	mixes := workload.TableIII()[:3]
	pols := append(evaluatedPolicies(stt, opt), noniPol(), exPol(),
		namedPolicy{"LAP+DWB", registered("LAP+DWB", stt.PolicyParams(opt.DuelPeriod))})
	batch := append(mixRunBatch(stt, opt, mixes, pols...), mixRunBatch(sram, opt, mixes, pols...)...)

	ResetMemo()
	recs := streams.Stats()
	warmRuns(opt, batch)
	if got := streams.Stats().Computed - recs.Computed; got != uint64(len(mixes)) {
		t.Errorf("the batch recorded %d times for %d mixes", got, len(mixes))
	}
	replayed := map[memoKey]sim.Result{}
	for _, r := range batch {
		_, _, key := cellFor(r.cfg, r.pol.New, r.mix, r.opt)
		replayed[key] = run(r.cfg, r.pol.Name, r.pol.New, r.mix, r.opt)
	}

	ResetMemo()
	serial := opt
	serial.Jobs = 1
	for _, r := range batch {
		_, _, key := cellFor(r.cfg, r.pol.New, r.mix, serial)
		if got := run(r.cfg, r.pol.Name, r.pol.New, r.mix, serial); !reflect.DeepEqual(got, replayed[key]) {
			t.Errorf("%s on %s: warm replay differs from the serial direct walk", r.pol.Name, r.mix.Name)
		}
	}
}
