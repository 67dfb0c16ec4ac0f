package experiments

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Motivation experiments (Section II): Figure 2 (no dominant traditional
// policy), Figure 4 (loop-block distribution), Figure 6 (redundant LLC
// data-fills). All run four duplicate copies of each SPEC surrogate, as
// the paper does.

// duplicateMixes builds the per-benchmark duplicate mixes the motivation
// figures run (four copies of each SPEC surrogate, as the paper does).
func duplicateMixes(benches []workload.Benchmark, cores int) []workload.Mix {
	mixes := make([]workload.Mix, len(benches))
	for i, b := range benches {
		mixes[i] = workload.Duplicate(b.Name, cores)
	}
	return mixes
}

// Fig2Row holds one benchmark's Figure 2 measurements.
type Fig2Row struct {
	Bench string
	// SRAMExOverNoni and STTExOverNoni are exclusive-policy EPI
	// normalised to non-inclusive, for SRAM and STT-RAM LLCs (Fig. 2a/b).
	SRAMExOverNoni float64
	STTExOverNoni  float64
	// Mrel and Wrel are the exclusive policy's LLC misses and writes
	// relative to non-inclusive (Fig. 2c).
	Mrel float64
	Wrel float64
}

// Fig2Data computes the Figure 2 series.
func Fig2Data(opt Options) []Fig2Row {
	sttCfg := sim.DefaultConfig()
	sramCfg := sttCfg.WithSRAML3()
	mixes := duplicateMixes(workload.SPEC(), sttCfg.Cores)
	warmRuns(opt, append(
		mixRunBatch(sttCfg, opt, mixes, noniPol(), exPol()),
		mixRunBatch(sramCfg, opt, mixes, noniPol(), exPol())...))
	var rows []Fig2Row
	for i, b := range workload.SPEC() {
		mix := mixes[i]
		nSTT := run(sttCfg, "noni", Noni(), mix, opt)
		eSTT := run(sttCfg, "ex", Ex(), mix, opt)
		nSRAM := run(sramCfg, "noni", Noni(), mix, opt)
		eSRAM := run(sramCfg, "ex", Ex(), mix, opt)
		rows = append(rows, Fig2Row{
			Bench:          b.Name,
			SRAMExOverNoni: ratio(eSRAM.EPI.Total(), nSRAM.EPI.Total()),
			STTExOverNoni:  ratio(eSTT.EPI.Total(), nSTT.EPI.Total()),
			Mrel:           ratio(float64(eSTT.Met.L3Misses), float64(nSTT.Met.L3Misses)),
			Wrel:           ratio(float64(eSTT.Met.WritesToLLC()), float64(nSTT.Met.WritesToLLC())),
		})
	}
	return rows
}

// Fig2 renders Figure 2.
func Fig2(opt Options) *Table {
	t := &Table{
		ID:     "Fig. 2",
		Title:  "EPI of exclusive normalised to non-inclusive (SRAM vs STT-RAM) and relative misses/writes",
		Header: []string{"benchmark", "SRAM ex/noni", "STT ex/noni", "rel. misses", "rel. writes"},
		Notes: []string{
			"paper shape: SRAM always favours exclusion; STT-RAM favours exclusion only when relative writes are low",
		},
	}
	for _, r := range Fig2Data(opt) {
		t.AddRow(r.Bench, f2(r.SRAMExOverNoni), f2(r.STTExOverNoni), f2(r.Mrel), f2(r.Wrel))
	}
	return t
}

// Fig4Row holds one benchmark's loop-block distribution.
type Fig4Row struct {
	Bench string
	// CTC1, CTCMid, CTCHigh are the loop-block shares of L2 evictions by
	// clean-trip count (==1, 2-4, >=5).
	CTC1, CTCMid, CTCHigh float64
}

// Total is the benchmark's overall loop-block fraction.
func (r Fig4Row) Total() float64 { return r.CTC1 + r.CTCMid + r.CTCHigh }

// Fig4Data computes the Figure 4 series using the profiler under the
// paper's baseline (non-inclusive) hierarchy.
func Fig4Data(opt Options) []Fig4Row {
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	mixes := duplicateMixes(workload.SPEC(), cfg.Cores)
	warmMixRuns(cfg, opt, mixes, noniPol())
	var rows []Fig4Row
	for i, b := range workload.SPEC() {
		mix := mixes[i]
		res := run(cfg, "noni", Noni(), mix, opt)
		c1, cm, ch := res.Prof.CTCBuckets()
		rows = append(rows, Fig4Row{Bench: b.Name, CTC1: c1, CTCMid: cm, CTCHigh: ch})
	}
	return rows
}

// Fig4 renders Figure 4.
func Fig4(opt Options) *Table {
	t := &Table{
		ID:     "Fig. 4",
		Title:  "Loop-block distribution (share of L2 evictions) by clean trip count",
		Header: []string{"benchmark", "CTC=1", "1<CTC<5", "CTC>=5", "total"},
		Notes: []string{
			"paper shape: omnetpp/xalancbmk > 60%, bzip2 > 20%, most loop-blocks have CTC >= 5",
		},
	}
	for _, r := range Fig4Data(opt) {
		t.AddRow(r.Bench, pct(r.CTC1), pct(r.CTCMid), pct(r.CTCHigh), pct(r.Total()))
	}
	return t
}

// Fig6Row holds one benchmark's redundant-fill fraction.
type Fig6Row struct {
	Bench string
	// RedundantFillFrac is the share of non-inclusive LLC data-fills that
	// are modified in the upper levels before reuse.
	RedundantFillFrac float64
}

// Fig6Data computes the Figure 6 series.
func Fig6Data(opt Options) []Fig6Row {
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	mixes := duplicateMixes(workload.SPEC(), cfg.Cores)
	warmMixRuns(cfg, opt, mixes, noniPol())
	var rows []Fig6Row
	for i, b := range workload.SPEC() {
		mix := mixes[i]
		res := run(cfg, "noni", Noni(), mix, opt)
		rows = append(rows, Fig6Row{Bench: b.Name, RedundantFillFrac: res.Prof.RedundantFillFrac()})
	}
	return rows
}

// Fig6 renders Figure 6.
func Fig6(opt Options) *Table {
	t := &Table{
		ID:     "Fig. 6",
		Title:  "Redundant LLC data-fills under the non-inclusive policy",
		Header: []string{"benchmark", "redundant fills"},
		Notes: []string{
			"paper shape: libquantum > 80%; astar/GemsFDTD/mcf high; average ~9.6% over mixes",
		},
	}
	for _, r := range Fig6Data(opt) {
		t.AddRow(r.Bench, pct(r.RedundantFillFrac))
	}
	return t
}
