package experiments

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Evaluation experiments (Section VI-A/B): Figures 12-19 on
// multi-programmed SPEC mixes with the STT-RAM (and SRAM) LLC.

// namedPolicy pairs a policy name with its factory.
type namedPolicy struct {
	Name string
	New  sim.Controller
}

// evaluatedPolicies returns the Table IV comparison set (the baselines
// plus LAP) for a configuration.
func evaluatedPolicies(cfg sim.Config, opt Options) []namedPolicy {
	return []namedPolicy{
		{"Exclusive", Ex()},
		{"FLEXclusion", Flex(opt)},
		{"Dswitch", Dswitch(cfg, opt)},
		{"LAP", LAP(opt)},
	}
}

// mixStats holds one mix's non-inclusive/exclusive baseline measurements.
type mixStats struct {
	Mix  workload.Mix
	Noni sim.Result
	Ex   sim.Result
}

// Wrel is the exclusive policy's LLC write traffic relative to
// non-inclusive; Mrel the relative miss count.
func (m mixStats) Wrel() float64 {
	return ratio(float64(m.Ex.Met.WritesToLLC()), float64(m.Noni.Met.WritesToLLC()))
}

// Mrel is the relative LLC miss count.
func (m mixStats) Mrel() float64 {
	return ratio(float64(m.Ex.Met.L3Misses), float64(m.Noni.Met.L3Misses))
}

// baselines runs noni and ex for a mix under cfg.
func baselines(cfg sim.Config, mix workload.Mix, opt Options) mixStats {
	return mixStats{
		Mix:  mix,
		Noni: run(cfg, "noni", Noni(), mix, opt),
		Ex:   run(cfg, "ex", Ex(), mix, opt),
	}
}

// randomMixStats measures the opt.RandomMixes random mixes under the
// STT-RAM LLC and returns them sorted by Wrel, the paper's presentation
// order for Figures 12(c)/13/14.
func randomMixStats(opt Options) []mixStats {
	cfg := sim.DefaultConfig()
	mixes := workload.RandomMixes(opt.RandomMixes, cfg.Cores, opt.Seed)
	warmMixRuns(cfg, opt, mixes, noniPol(), exPol())
	stats := make([]mixStats, len(mixes))
	for i, m := range mixes {
		stats[i] = baselines(cfg, m, opt)
	}
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Wrel() < stats[j].Wrel() })
	return stats
}

// Fig12 reports the exclusive policy's EPI normalised to non-inclusive
// for the Table III mixes (SRAM and STT-RAM, with static/dynamic
// breakdown) plus WL/WH/overall summaries over the random mixes.
func Fig12(opt Options) *Table {
	stt := sim.DefaultConfig()
	sram := stt.WithSRAML3()
	t := &Table{
		ID:     "Fig. 12",
		Title:  "EPI of exclusive normalised to non-inclusive; static/dynamic breakdown (STT-RAM)",
		Header: []string{"mix", "Wrel", "SRAM ex/noni", "STT ex/noni", "noni st/dyn", "ex st/dyn"},
		Notes: []string{
			"paper shape: SRAM always favours exclusion; STT splits by Wrel (WL: ex ~18% better; WH: ex ~12% worse)",
		},
	}
	mixes := workload.TableIII()
	warmRuns(opt, append(
		mixRunBatch(stt, opt, mixes, noniPol(), exPol()),
		mixRunBatch(sram, opt, mixes, noniPol(), exPol())...))
	for _, mix := range mixes {
		bSTT := baselines(stt, mix, opt)
		bSRAM := baselines(sram, mix, opt)
		t.AddRow(mix.Name,
			f2(bSTT.Wrel()),
			f2(ratio(bSRAM.Ex.EPI.Total(), bSRAM.Noni.EPI.Total())),
			f2(ratio(bSTT.Ex.EPI.Total(), bSTT.Noni.EPI.Total())),
			f2(bSTT.Noni.EPI.StaticNJPerInstr/bSTT.Noni.EPI.Total())+"/"+f2(bSTT.Noni.EPI.DynamicNJPerInstr/bSTT.Noni.EPI.Total()),
			f2(bSTT.Ex.EPI.StaticNJPerInstr/bSTT.Noni.EPI.Total())+"/"+f2(bSTT.Ex.EPI.DynamicNJPerInstr/bSTT.Noni.EPI.Total()),
		)
	}
	// Summaries over the random mixes (STT-RAM).
	var wl, wh, all []float64
	for _, s := range randomMixStats(opt) {
		r := ratio(s.Ex.EPI.Total(), s.Noni.EPI.Total())
		all = append(all, r)
		if s.Wrel() < 1 {
			wl = append(wl, r)
		} else {
			wh = append(wh, r)
		}
	}
	t.AddRow("AvgWL("+itoa(len(wl))+")", "<1", "", f2(mean(wl)), "", "")
	t.AddRow("AvgWH("+itoa(len(wh))+")", ">=1", "", f2(mean(wh)), "", "")
	t.AddRow("AvgAll", "", "", f2(mean(all)), "", "")
	t.AddRow("Max", "", "", f2(maxOf(all)), "", "")
	t.AddRow("Min", "", "", f2(minOf(all)), "", "")
	return t
}

// Fig13 reports the workload-characteristic scatter: relative misses vs
// relative writes of exclusion over the random mixes, and which policy
// each mix favours. The paper's borderline has slope -0.8 in
// (Mrel, Wrel) space: mixes below favour exclusion.
func Fig13(opt Options) *Table {
	t := &Table{
		ID:     "Fig. 13",
		Title:  "Workload characteristics: relative misses (Mrel) and writes (Wrel) of exclusion",
		Header: []string{"mix", "members", "Mrel", "Wrel", "favoured (by EPI)"},
		Notes: []string{
			"paper shape: mixes separate along a borderline of slope ~-0.8; higher Wrel favours non-inclusion",
		},
	}
	agree := 0
	stats := randomMixStats(opt)
	for _, s := range stats {
		fav := "exclusion"
		if s.Ex.EPI.Total() > s.Noni.EPI.Total() {
			fav = "non-inclusion"
		}
		// Paper borderline: Wrel = -0.8*Mrel + c with exclusion favoured
		// below. Using c ~= 1.8 matched against our measurements.
		predicted := "exclusion"
		if s.Wrel() > -0.8*s.Mrel()+1.8 {
			predicted = "non-inclusion"
		}
		if fav == predicted {
			agree++
		}
		t.AddRow(s.Mix.Name, joinShort(s.Mix.Members), f2(s.Mrel()), f2(s.Wrel()), fav)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("borderline (slope -0.8) classifies %d/%d mixes correctly", agree, len(stats)))
	return t
}

// Fig14 compares all evaluated policies: overall EPI, dynamic EPI, and
// throughput, each normalised to non-inclusive.
func Fig14(opt Options) *Table {
	cfg := sim.DefaultConfig()
	pols := evaluatedPolicies(cfg, opt)
	t := &Table{
		ID:     "Fig. 14",
		Title:  "Policy comparison on the STT-RAM LLC (normalised to non-inclusive)",
		Header: []string{"mix", "metric", "Exclusive", "FLEXclusion", "Dswitch", "LAP"},
		Notes: []string{
			"paper shape: LAP saves ~20%/~12% energy vs noni/ex, Dswitch ~10%/~2%; LAP throughput ~= exclusive (+2%)",
		},
	}
	mixes := workload.TableIII()
	// One batch warms every run of the figure, the random mixes'
	// baselines included, so each mix's private levels are recorded
	// once.
	withBase := append([]namedPolicy{noniPol()}, pols...)
	warmRuns(opt, append(
		mixRunBatch(cfg, opt, mixes, withBase...),
		mixRunBatch(cfg, opt, workload.RandomMixes(opt.RandomMixes, cfg.Cores, opt.Seed), withBase...)...))
	stats := randomMixStats(opt)
	addMix := func(mix workload.Mix) {
		base := run(cfg, "noni", Noni(), mix, opt)
		epi := []string{mix.Name, "EPI"}
		dyn := []string{"", "dynamic EPI"}
		perf := []string{"", "throughput"}
		for _, p := range pols {
			r := run(cfg, p.Name, p.New, mix, opt)
			epi = append(epi, f2(ratio(r.EPI.Total(), base.EPI.Total())))
			dyn = append(dyn, f2(ratio(r.EPI.DynamicNJPerInstr, base.EPI.DynamicNJPerInstr)))
			perf = append(perf, f2(ratio(r.Throughput, base.Throughput)))
		}
		t.Rows = append(t.Rows, epi, dyn, perf)
	}
	for _, mix := range mixes {
		addMix(mix)
	}
	// Averages over the random mixes.
	sums := make(map[string][3]float64, len(pols))
	for _, s := range stats {
		for _, p := range pols {
			r := run(cfg, p.Name, p.New, s.Mix, opt)
			acc := sums[p.Name]
			acc[0] += ratio(r.EPI.Total(), s.Noni.EPI.Total())
			acc[1] += ratio(r.EPI.DynamicNJPerInstr, s.Noni.EPI.DynamicNJPerInstr)
			acc[2] += ratio(r.Throughput, s.Noni.Throughput)
			sums[p.Name] = acc
		}
	}
	n := float64(len(stats))
	for mi, metric := range []string{"EPI", "dynamic EPI", "throughput"} {
		row := []string{"", metric}
		if mi == 0 {
			row[0] = fmt.Sprintf("Avg(%d mixes)", len(stats))
		}
		for _, p := range pols {
			row = append(row, f2(sums[p.Name][mi]/n))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig15 decomposes LLC write traffic by source, normalised to the
// non-inclusive policy's total.
func Fig15(opt Options) *Table {
	cfg := sim.DefaultConfig()
	t := &Table{
		ID:     "Fig. 15",
		Title:  "Writes to the STT-RAM LLC by source, normalised to non-inclusive total",
		Header: []string{"mix", "policy", "data-fill", "L2 dirty", "L2 clean", "total"},
		Notes: []string{
			"paper shape: LAP eliminates data-fills and ~30% of clean insertions; -35%/-29% total vs noni/ex",
		},
	}
	pols := []namedPolicy{{"noni", Noni()}, {"ex", Ex()}, {"LAP", LAP(opt)}}
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, pols...)
	for _, mix := range mixes {
		noniRun := run(cfg, "noni", Noni(), mix, opt)
		base := float64(noniRun.Met.WritesToLLC())
		for _, p := range pols {
			r := run(cfg, p.Name, p.New, mix, opt)
			t.AddRow(mix.Name, p.Name,
				f2(ratio(float64(r.Met.WritesFill), base)),
				f2(ratio(float64(r.Met.WritesDirty), base)),
				f2(ratio(float64(r.Met.WritesClean), base)),
				f2(ratio(float64(r.Met.WritesToLLC()), base)))
		}
	}
	return t
}

// Fig16 reports redundant clean (loop-block) insertions as a share of all
// LLC writes, per policy.
func Fig16(opt Options) *Table {
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	pols := evaluatedPolicies(cfg, opt)
	t := &Table{
		ID:     "Fig. 16",
		Title:  "Redundant clean (loop-block) insertions as a share of LLC writes",
		Header: []string{"mix", "Exclusive", "FLEXclusion", "Dswitch", "LAP"},
		Notes: []string{
			"paper shape: WH mixes have many loop-blocks; FLEX/Dswitch trim a few points; LAP removes most",
		},
	}
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, pols...)
	for _, mix := range mixes {
		row := []string{mix.Name}
		for _, p := range pols {
			r := run(cfg, p.Name, p.New, mix, opt)
			met := r.Met
			row = append(row, pct(ratio(float64(r.Prof.RedundantCleanInserts), float64(met.WritesToLLC()))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig17 reports the redundant share of LLC data-fills under the
// non-inclusive policy per mix.
func Fig17(opt Options) *Table {
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	t := &Table{
		ID:     "Fig. 17",
		Title:  "Redundant LLC data-fills under non-inclusion",
		Header: []string{"mix", "redundant fills"},
		Notes: []string{
			"paper shape: ~9.6% on average, >30% for some mixes (our RMW-calibrated surrogates run higher; see EXPERIMENTS.md)",
		},
	}
	total := 0.0
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, noniPol())
	for _, mix := range mixes {
		r := run(cfg, "noni", Noni(), mix, opt)
		fr := r.Prof.RedundantFillFrac()
		total += fr
		t.AddRow(mix.Name, pct(fr))
	}
	t.AddRow("Avg", pct(total/float64(len(mixes))))
	return t
}

// Fig18 reports LLC MPKI normalised to non-inclusive for exclusive and
// LAP.
func Fig18(opt Options) *Table {
	cfg := sim.DefaultConfig()
	t := &Table{
		ID:     "Fig. 18",
		Title:  "LLC MPKI normalised to non-inclusive",
		Header: []string{"mix", "Exclusive", "LAP"},
		Notes: []string{
			"paper shape: exclusive -23% misses on average; LAP within ~1% of exclusive",
		},
	}
	var sumEx, sumLap float64
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, noniPol(), exPol(), namedPolicy{"LAP", LAP(opt)})
	for _, mix := range mixes {
		base := run(cfg, "noni", Noni(), mix, opt)
		ex := run(cfg, "ex", Ex(), mix, opt)
		lap := run(cfg, "LAP", LAP(opt), mix, opt)
		re := ratio(ex.MPKI(), base.MPKI())
		rl := ratio(lap.MPKI(), base.MPKI())
		sumEx += re
		sumLap += rl
		t.AddRow(mix.Name, f2(re), f2(rl))
	}
	n := float64(len(mixes))
	t.AddRow("Avg", f2(sumEx/n), f2(sumLap/n))
	return t
}

// Fig19 compares LAP's replacement variants (LAP-LRU, LAP-Loop, dueling
// LAP), EPI normalised to non-inclusive.
func Fig19(opt Options) *Table {
	cfg := sim.DefaultConfig()
	t := &Table{
		ID:     "Fig. 19",
		Title:  "LAP replacement variants: overall EPI normalised to non-inclusive",
		Header: []string{"mix", "LAP-LRU", "LAP-Loop", "LAP"},
		Notes: []string{
			"paper shape: neither fixed policy dominates; set-dueling LAP tracks the better one per mix",
		},
	}
	var s1, s2, s3 float64
	mixes := workload.TableIII()
	warmMixRuns(cfg, opt, mixes, noniPol(),
		namedPolicy{"LAP-LRU", LAPLRU()}, namedPolicy{"LAP-Loop", LAPLoop()}, namedPolicy{"LAP", LAP(opt)})
	for _, mix := range mixes {
		base := run(cfg, "noni", Noni(), mix, opt)
		lru := run(cfg, "LAP-LRU", LAPLRU(), mix, opt)
		loop := run(cfg, "LAP-Loop", LAPLoop(), mix, opt)
		lap := run(cfg, "LAP", LAP(opt), mix, opt)
		r1 := ratio(lru.EPI.Total(), base.EPI.Total())
		r2 := ratio(loop.EPI.Total(), base.EPI.Total())
		r3 := ratio(lap.EPI.Total(), base.EPI.Total())
		s1, s2, s3 = s1+r1, s2+r2, s3+r3
		t.AddRow(mix.Name, f2(r1), f2(r2), f2(r3))
	}
	n := float64(len(mixes))
	t.AddRow("Avg", f2(s1/n), f2(s2/n), f2(s3/n))
	return t
}

// Helpers.

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func joinShort(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		if len(n) > 4 {
			n = n[:4]
		}
		out += n
	}
	return out
}
