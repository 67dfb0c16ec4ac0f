package core

// Profiler tracks per-block history to measure the paper's motivational
// quantities: redundant LLC data-fills (Section II-C2, Fig. 5/6/17),
// redundant clean-data insertions a.k.a. loop-block insertions (Section
// II-C1, Fig. 3/16), and the clean-trip-count (CTC) distribution of
// loop-blocks (Fig. 4). It is optional — production-speed runs leave it
// nil — and keyed by block number, which is safe because multi-programmed
// cores occupy disjoint address spaces.
type Profiler struct {
	blocks map[uint64]*blockState

	// TotalFills and RedundantFills measure non-inclusive data-fill
	// waste: a fill is redundant when the block is modified in the upper
	// levels before the LLC copy is ever reused.
	TotalFills     uint64
	RedundantFills uint64

	// TotalCleanInserts and RedundantCleanInserts measure exclusive-style
	// waste: a clean insertion is redundant when an identical clean copy
	// was present in the LLC since the block's last modification.
	TotalCleanInserts     uint64
	RedundantCleanInserts uint64

	// L2Evictions and CTC histogram for Fig. 4. A "clean trip" is a block
	// fetched from an LLC hit and later evicted from the L2 still clean;
	// CTCRuns[k] counts completed runs of exactly k consecutive clean
	// trips (k capped at CTCMax).
	L2Evictions uint64
	CTCRuns     map[int]uint64
}

// CTCMax caps the recorded run length; the paper's top bucket is CTC >= 5.
const CTCMax = 64

type blockState struct {
	// fillUnused: the block was data-filled into the LLC (non-inclusive
	// path) and that copy has not been reused yet.
	fillUnused bool
	// cleanInL3: an unmodified copy of the block's current data sits (or
	// sat, for exclusive hit-invalidates) in the LLC.
	cleanInL3 bool
	// fromL3Hit: the current L2 residency was served by an LLC hit.
	fromL3Hit bool
	// run is the current consecutive clean-trip count.
	run int
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{blocks: make(map[uint64]*blockState), CTCRuns: make(map[int]uint64)}
}

func (p *Profiler) state(block uint64) *blockState {
	st := p.blocks[block]
	if st == nil {
		st = &blockState{}
		p.blocks[block] = st
	}
	return st
}

// OnFill records a non-inclusive-style data-fill of the LLC.
func (p *Profiler) OnFill(block uint64) {
	st := p.state(block)
	st.fillUnused = true
	st.cleanInL3 = true
	p.TotalFills++
}

// OnFetch records the source of an L2 fill: hit=true means the LLC served
// it (so the LLC copy was reused, and a future clean eviction is a clean
// trip), hit=false means it came from memory.
func (p *Profiler) OnFetch(block uint64, hit bool) {
	st := p.state(block)
	st.fromL3Hit = hit
	if hit {
		st.fillUnused = false
		st.cleanInL3 = true
	}
}

// OnL2Write records a store to the block while it lives in the upper
// levels. Modification ends any clean-trip run and invalidates both the
// "unused fill" and "clean copy in L3" properties.
func (p *Profiler) OnL2Write(block uint64) {
	st := p.state(block)
	if st.fillUnused {
		p.RedundantFills++
		st.fillUnused = false
	}
	st.cleanInL3 = false
	p.endRun(st)
}

// OnL2Evict records an L2 eviction; dirty indicates the victim state.
func (p *Profiler) OnL2Evict(block uint64, dirty bool) {
	p.L2Evictions++
	st := p.state(block)
	if dirty {
		p.endRun(st)
		return
	}
	if st.fromL3Hit {
		st.run++
		if st.run > CTCMax {
			st.run = CTCMax
		}
	}
}

// OnCleanInsert records a clean-victim insertion into the LLC and reports
// whether it was redundant.
func (p *Profiler) OnCleanInsert(block uint64) {
	p.TotalCleanInserts++
	st := p.state(block)
	if st.cleanInL3 {
		p.RedundantCleanInserts++
	}
	st.cleanInL3 = true
}

// OnL3Evict records that the LLC dropped its copy of the block.
func (p *Profiler) OnL3Evict(block uint64) {
	if st := p.blocks[block]; st != nil {
		st.cleanInL3 = false
		st.fillUnused = false
	}
}

// Finish flushes in-flight clean-trip runs into the histogram and drops
// the per-block state, which only the run needs: a finished profile
// keeps its counters alone, however many blocks the run touched. Call
// it once, at the end of the simulation, before reading CTC statistics;
// the profiler records nothing after it.
func (p *Profiler) Finish() {
	for _, st := range p.blocks {
		p.endRun(st)
	}
	p.blocks = nil
}

func (p *Profiler) endRun(st *blockState) {
	if st.run > 0 {
		p.CTCRuns[st.run]++
		st.run = 0
	}
}

// RedundantFillFrac returns the redundant fraction of LLC data-fills
// (Fig. 6 / Fig. 17).
func (p *Profiler) RedundantFillFrac() float64 {
	if p.TotalFills == 0 {
		return 0
	}
	return float64(p.RedundantFills) / float64(p.TotalFills)
}

// RedundantCleanFrac returns the redundant fraction of clean insertions.
func (p *Profiler) RedundantCleanFrac() float64 {
	if p.TotalCleanInserts == 0 {
		return 0
	}
	return float64(p.RedundantCleanInserts) / float64(p.TotalCleanInserts)
}

// CTCBuckets summarises the clean-trip histogram as the paper's Figure 4
// does: the fraction of all L2 evictions attributable to loop-blocks with
// CTC == 1, 1 < CTC < 5, and CTC >= 5. A run of length k contributes k
// clean-trip evictions.
func (p *Profiler) CTCBuckets() (ctc1, ctcMid, ctcHigh float64) {
	if p.L2Evictions == 0 {
		return 0, 0, 0
	}
	var e1, eMid, eHigh uint64
	for k, runs := range p.CTCRuns {
		evictions := uint64(k) * runs
		switch {
		case k == 1:
			e1 += evictions
		case k < 5:
			eMid += evictions
		default:
			eHigh += evictions
		}
	}
	d := float64(p.L2Evictions)
	return float64(e1) / d, float64(eMid) / d, float64(eHigh) / d
}

// LoopBlockFrac returns the total loop-block share of L2 evictions — the
// bar height of Fig. 4.
func (p *Profiler) LoopBlockFrac() float64 {
	a, b, c := p.CTCBuckets()
	return a + b + c
}
