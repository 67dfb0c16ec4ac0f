package experiments

import (
	"fmt"
	"reflect"
	"testing"

	memocache "repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFig14RunsAndStreamBound regenerates Fig. 14 at the Quick mix
// count (the ten Table III mixes and eight random ones) on two workers
// from an empty memo, exact and sampled, at a shorter length: which
// cells and artifacts a sweep makes does not depend on it.
//   - Each (mix, controller) cell computes once: 90 runs. Keying cells
//     by display label computed exclusive twice on the random mixes
//     ("ex" and "Exclusive"), 98 runs.
//   - Exact, the 18 mixes run 72 cores, of which 38 differ (one
//     benchmark at one position is one core). Keeping every shared core
//     from its first mix to its last would hold 21 recordings at once;
//     the plan's limit on two workers is 20, so one core is recorded
//     again: 39 recordings. Sampled, each mix's profile is built once:
//     18 profiles, and no recording, since sampled runs never replay.
//   - Resident artifacts stay bounded, and none outlives the sweep. A
//     profile belongs to one mix, so at most workers+1 are resident. The
//     recordings' bound is the plan's model, widened by one mix of
//     scheduling lag per worker on either side.
//
// At the Defaults scale Fig. 14's 60 mixes run 51 distinct cores, and
// keeping each from its first mix to its last would hold 45 at once;
// the plan keeps the model at the limit.
func TestFig14RunsAndStreamBound(t *testing.T) {
	opt := Quick()
	opt.Accesses = 5_000
	opt.Jobs = 2
	cfg := sim.DefaultConfig()
	limit := (opt.workers() + 3) * cfg.Cores
	mixes := append(workload.TableIII(), workload.RandomMixes(opt.RandomMixes, cfg.Cores, opt.Seed)...)
	m := residencyModel(t, cfg, opt, mixes, opt.workers())
	t.Logf("%d distinct cores, %d recordings; model peak %d, bound %d", m.distinct, m.recordings, m.peak, m.bound)
	if m.distinct != 38 || m.recordings != 39 || m.peak > limit {
		t.Errorf("Fig. 14's mixes run %d distinct cores in %d recordings, %d resident at once; want 38 in 39, at most %d",
			m.distinct, m.recordings, m.peak, limit)
	}

	def := Defaults()
	defMixes := append(workload.TableIII(), workload.RandomMixes(def.RandomMixes, cfg.Cores, def.Seed)...)
	keep := residencyModel(t, cfg, def, defMixes, 1<<20) // no limit
	planned := residencyModel(t, cfg, def, defMixes, opt.workers())
	t.Logf("Defaults: %d distinct cores; kept throughout %d resident, planned %d in %d recordings",
		keep.distinct, keep.peak, planned.peak, planned.recordings)
	if keep.distinct != 51 || keep.peak != 45 || planned.peak != limit {
		t.Errorf("Defaults Fig. 14: %d distinct cores, %d resident kept throughout and %d planned, want 51, 45 and %d",
			keep.distinct, keep.peak, planned.peak, limit)
	}

	for _, tc := range []struct {
		name     string
		interval uint64
		built    interface{ Stats() memocache.Stats }
		idle     interface{ Stats() memocache.Stats }
		peak     func() int
		left     func() int
		want     int // artifacts built
		max      int // resident at once
	}{
		{"exact", 0, streams, profiles, streams.peakEntries, streams.Len, m.recordings, m.bound},
		{"sampled", 1000, profiles, streams, profiles.peakEntries, profiles.Len, 18, opt.workers() + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := opt
			opt.SampleInterval = tc.interval
			ResetMemo()
			runs, built, idle := Stats(), tc.built.Stats(), tc.idle.Stats()
			Fig14(opt)
			if got := Stats().Computed - runs.Computed; got != 90 {
				t.Errorf("Fig. 14 computed %d runs, want 90", got)
			}
			if got := tc.built.Stats().Computed - built.Computed; got != uint64(tc.want) {
				t.Errorf("Fig. 14 built %d artifacts, want %d", got, tc.want)
			}
			if got := tc.idle.Stats().Computed - idle.Computed; got != 0 {
				t.Errorf("Fig. 14 built %d artifacts of the other kind, want 0", got)
			}
			peak := tc.peak()
			t.Logf("peak %d resident", peak)
			if peak < 1 || peak > tc.max {
				t.Errorf("up to %d artifacts resident at once on %d workers, want 1..%d", peak, opt.workers(), tc.max)
			}
			if n := tc.left(); n != 0 {
				t.Errorf("%d artifacts outlived the sweep", n)
			}
		})
	}
}

// residency is residencyModel's account of a mix-major batch's per-core
// recordings.
type residency struct {
	distinct, recordings int
	peak                 int // resident at once under the plan's model
	bound                int // peak with one mix of lag per worker on either side
}

// residencyModel plans the per-core recordings that a mix-major batch
// over mixes reads on the given number of workers (planRecordings) and
// models their residency: a recording is resident from the mix before
// its first reader (it is built while that mix runs) to its last
// reader.
func residencyModel(t *testing.T, cfg sim.Config, opt Options, mixes []workload.Mix, workers int) residency {
	cores := make([][]recKey, len(mixes))
	distinct := map[sim.CoreKey]bool{}
	for i, mix := range mixes {
		keys, err := cfg.CoreKeys(mix, opt.Accesses, opt.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cores[i] = make([]recKey, len(keys))
		for j, k := range keys {
			cores[i][j].Core = k
			distinct[k] = true
		}
	}
	var m residency
	m.distinct = len(distinct)
	m.recordings, m.peak = planRecordings(cores, workers)
	first, last := map[recKey]int{}, map[recKey]int{}
	for i, ks := range cores {
		for _, k := range ks {
			if _, ok := first[k]; !ok {
				first[k] = i
			}
			last[k] = i
		}
	}
	if len(first) != m.recordings {
		t.Fatalf("the plan counts %d recordings and numbers %d", m.recordings, len(first))
	}
	for i := range mixes {
		n := 0
		for k, f := range first {
			if f-1-workers <= i && i <= last[k]+workers {
				n++
			}
		}
		m.bound = max(m.bound, n)
	}
	return m
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

	cores := residencyModel(t, stt, opt, mixes, opt.workers()).distinct
	checkWarmReplay(t, opt, batch, cores)
}

// TestWarmReplayRecordsAgain runs a warm batch whose plan records cores
// again: the first four of twelve mixes come back as the last four, and
// keeping their 16 cores across the eight mixes between would hold 24
// recordings where two workers allow 20. Every cell must still match
// the serial direct walk.
func TestWarmReplayRecordsAgain(t *testing.T) {
	opt := Options{Accesses: 4_000, Seed: 2016, DuelPeriod: 40_000, Jobs: 2}
	cfg := sim.DefaultConfig()
	spec := workload.SPEC()
	mixes := make([]workload.Mix, 12)
	for i := range 8 {
		mixes[i].Name = fmt.Sprintf("m%d", i)
		for j := range cfg.Cores {
			mixes[i].Members = append(mixes[i].Members, spec[(i+3*j)%len(spec)].Name)
		}
	}
	for i := 8; i < 12; i++ {
		mixes[i] = workload.Mix{Name: fmt.Sprintf("m%d", i), Members: mixes[i-8].Members}
	}
	m := residencyModel(t, cfg, opt, mixes, opt.workers())
	t.Logf("%d distinct cores in %d recordings, model peak %d", m.distinct, m.recordings, m.peak)
	if m.distinct != 32 || m.recordings <= m.distinct {
		t.Fatalf("the mixes run %d distinct cores in %d recordings, want 32 and some recorded again", m.distinct, m.recordings)
	}
	checkWarmReplay(t, opt, mixRunBatch(cfg, opt, mixes, noniPol(), exPol()), m.recordings)
}

// checkWarmReplay runs batch as one warm batch, which must make want
// per-core recordings and drop them all, and compares every cell with
// the direct walk of a serial pass.
func checkWarmReplay(t *testing.T, opt Options, batch []mixRun, want int) {
	t.Helper()
	ResetMemo()
	recs := streams.Stats()
	warmRuns(opt, batch)
	if got := streams.Stats().Computed - recs.Computed; got != uint64(want) {
		t.Errorf("the batch made %d per-core recordings, want %d", got, want)
	}
	if n := streams.Len(); n != 0 {
		t.Errorf("%d per-core recordings outlived the batch", n)
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
