package experiments

import (
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ExtSeeds quantifies run-to-run stability of the headline result: LAP's
// EPI relative to non-inclusion over the Table III mixes, repeated across
// several workload seeds, reported as mean ± 95% CI. The paper runs one
// long simulation per configuration; our shorter synthetic runs make the
// seed sweep the honest substitute for that statistical weight.
func ExtSeeds(opt Options) *Table {
	const nSeeds = 5
	cfg := sim.DefaultConfig()
	t := &Table{
		ID:     "Ext. Seeds",
		Title:  "Stability of LAP's EPI vs non-inclusive across workload seeds (mean ± 95% CI)",
		Header: []string{"mix", "LAP/noni EPI", "Exclusive/noni EPI"},
		Notes: []string{
			"seed sweep over the Table III mixes; CIs use Student-t with n=5",
		},
	}
	mixes := workload.TableIII()
	var batch []mixRun
	for s := 0; s < nSeeds; s++ {
		o := opt
		o.Seed = opt.Seed + uint64(s)*7919
		batch = append(batch, mixRunBatch(cfg, o, mixes,
			noniPol(), namedPolicy{"LAP", LAP(o)}, exPol())...)
	}
	warmRuns(opt, batch)
	var allLap, allEx stats.Stream
	for _, mix := range mixes {
		var lapS, exS stats.Stream
		for s := 0; s < nSeeds; s++ {
			o := opt
			o.Seed = opt.Seed + uint64(s)*7919
			base := run(cfg, "noni", Noni(), mix, o)
			lapRes := run(cfg, "LAP", LAP(o), mix, o)
			exRes := run(cfg, "ex", Ex(), mix, o)
			rl := ratio(lapRes.EPI.Total(), base.EPI.Total())
			re := ratio(exRes.EPI.Total(), base.EPI.Total())
			lapS.Add(rl)
			exS.Add(re)
			allLap.Add(rl)
			allEx.Add(re)
		}
		t.AddRow(mix.Name, lapS.Summary().String(), exS.Summary().String())
	}
	t.AddRow("All", allLap.Summary().String(), allEx.Summary().String())
	return t
}
