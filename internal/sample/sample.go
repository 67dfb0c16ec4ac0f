// Package sample implements interval-sampled simulation: instead of
// running every access of a workload through the detailed timing model,
// a cheap functional profiling pass splits the trace into fixed-size
// intervals and fingerprints each one, the intervals are clustered by
// behavior signature, and only one representative per cluster is
// simulated in detail — the rest are fast-forwarded in functional
// warmup mode and their contribution extrapolated by cluster weight.
// The approach follows the SimPoint/SMARTS lineage of sampled
// microarchitecture simulation (see arXiv:2402.00649): program behavior
// is phase-structured, so a handful of representative windows predicts
// whole-run metrics to within a few percent at a fraction of the cost.
//
// The profile is policy-independent (it is collected under a fixed
// always-loop-aware LAP configuration so the loop-block signature
// dimension stays populated) and is reused across every policy of a
// sweep: one profiling pass amortizes over the six-plus policies a
// Fig. 14-style comparison simulates.
package sample

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Profile is the outcome of the functional profiling pass: one
// signature per interval plus a source checkpoint at every interval
// boundary, so a sampled executor can jump to any interval in O(1).
type Profile struct {
	// PerCore is the interval length in accesses per core.
	PerCore uint64
	// Cores is the machine width the profile was collected at.
	Cores int
	// Intervals holds one telemetry signature per interval, in order.
	Intervals []sim.Interval

	// checkpoints[i] holds each core's source forked at the start of
	// interval i. They are forked again (fork-of-fork) for every replay,
	// so one profile serves any number of policy runs.
	checkpoints [][]trace.Source

	// states holds deep cache-hierarchy snapshots captured at the start
	// of every snapStride-th interval. Restoring the nearest snapshot
	// before a replay removes the stale-LLC bias a bare source jump
	// would introduce: the hierarchy resumes exactly as the profiling
	// pass left it at that boundary. snapStride doubles whenever the
	// map would exceed maxStateSnapshots, bounding profile memory.
	states     map[int]*sim.MachineState
	snapStride int
}

// maxStateSnapshots bounds how many cache-hierarchy snapshots a profile
// retains. At the paper's default geometry one snapshot is ~2.2 MB
// (13 bytes per line; the 8 MB LLC's 131,072 lines dominate), so a
// profile tops out around 35 MB of state regardless of how many
// intervals it spans.
const maxStateSnapshots = 16

// ErrNotForkable reports sources that do not implement trace.Forker;
// sampled mode cannot checkpoint them.
var ErrNotForkable = errors.New("sample: trace sources are not forkable (sampled mode needs workload or in-memory sources)")

// profileController returns the fixed controller signatures are
// collected under: LAP with loop-aware replacement always on, so the
// LoopBlocks dimension distinguishes loop-heavy phases regardless of
// which policies the profile is later replayed against.
func profileController() core.Controller {
	return core.NewLAPVariant(core.AlwaysLoopAware)
}

// BuildProfile runs the functional profiling pass: every access of
// every source executes once in functional mode (cache state and event
// counters update; no timing, no energy), with a checkpoint captured at
// each interval boundary. The sources are consumed.
func BuildProfile(cfg sim.Config, srcs []trace.Source, perCore uint64) (*Profile, error) {
	if perCore == 0 {
		return nil, fmt.Errorf("sample: interval length must be positive")
	}
	p := &Profile{
		PerCore:    perCore,
		Cores:      cfg.Cores,
		states:     make(map[int]*sim.MachineState),
		snapStride: 1,
	}
	tel := &sim.Telemetry{
		// Interval windows are closed manually by the engine after each
		// functional window; the access-count trigger stays disabled.
		OnInterval: func(iv sim.Interval) { p.Intervals = append(p.Intervals, iv) },
	}
	eng := sim.NewEngine(cfg, profileController(), srcs, tel)
	// Snapshots evicted by stride-doubling are recycled as copy targets
	// for later captures: the profile allocates at most
	// maxStateSnapshots+1 states total instead of one per capture.
	var free []*sim.MachineState
	for !eng.Exhausted() {
		ck, ok := eng.ForkSources()
		if !ok {
			return nil, ErrNotForkable
		}
		// The state at the start of interval i is captured before the
		// window runs, but kept only once the window turns out non-empty:
		// a snapshot past the last interval is never restored.
		i := len(p.checkpoints)
		var snap *sim.MachineState
		if i%p.snapStride == 0 {
			var reuse *sim.MachineState
			if n := len(free); n > 0 {
				reuse, free = free[n-1], free[:n-1]
			}
			snap = eng.SnapshotState(reuse)
		}
		if eng.RunFunctional(perCore) == 0 {
			break
		}
		p.checkpoints = append(p.checkpoints, ck)
		if snap == nil {
			continue
		}
		p.states[i] = snap
		if len(p.states) > maxStateSnapshots {
			// Thin to every other snapshot. Because the stride only ever
			// doubles, the surviving positions are exactly the multiples
			// of the new stride.
			p.snapStride *= 2
			for pos, st := range p.states {
				if pos%p.snapStride != 0 {
					free = append(free, st)
					delete(p.states, pos)
				}
			}
		}
	}
	if len(p.Intervals) != len(p.checkpoints) {
		// RunFunctional flushes one Interval per non-empty window, and a
		// checkpoint is recorded only for non-empty windows; a mismatch
		// means the engine seam changed underneath us.
		panic(fmt.Sprintf("sample: %d intervals vs %d checkpoints", len(p.Intervals), len(p.checkpoints)))
	}
	if len(p.Intervals) == 0 {
		return nil, fmt.Errorf("sample: sources were empty, no intervals profiled")
	}
	return p, nil
}

// forkAt returns fresh forks of the checkpoint at the start of interval
// i, ready to hand to an engine. The stored checkpoints are never
// advanced, so the same profile replays any number of times.
func (p *Profile) forkAt(i int) []trace.Source {
	out := make([]trace.Source, len(p.checkpoints[i]))
	for j, s := range p.checkpoints[i] {
		f, ok := trace.ForkSource(s)
		if !ok {
			panic("sample: stored checkpoint lost forkability")
		}
		out[j] = f
	}
	return out
}

// stateFor returns the latest cache-state snapshot at or before
// interval i, with the interval index it was captured at. Position 0 is
// always captured (the cold boot state), so a snapshot always exists.
func (p *Profile) stateFor(i int) (int, *sim.MachineState) {
	pos := i - i%p.snapStride
	for pos > 0 {
		if st, ok := p.states[pos]; ok {
			return pos, st
		}
		pos -= p.snapStride
	}
	return 0, p.states[0]
}

// warmGap is the number of extra functional intervals a replay of
// representative r with warm warmup intervals must execute to bridge
// from the nearest snapshot to the start of its warmup window. The
// planner minimizes this when picking representatives: a gap of zero
// means the warmup window starts exactly on a snapshot.
func (p *Profile) warmGap(r, warm int) int {
	start := r - warm
	if start < 0 {
		start = 0
	}
	pos, _ := p.stateFor(start)
	return start - pos
}

// full reports whether interval i is a full-length window. The trailing
// window is usually short; short windows become singleton clusters and
// are always simulated in detail.
func (p *Profile) full(i int) bool {
	return p.Intervals[i].Accesses == p.PerCore*uint64(p.Cores)
}
