package experiments

import (
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The parallel run scheduler. Artifact generators keep their serial,
// deterministic assembly loops, but first *warm* the memo: they submit
// the batch of independent simulations they are about to collect to a
// worker pool sized by Options.Jobs. Because the memo is a singleflight
// cache (memo.go), warming is a pure performance hint — any run a
// generator forgets to warm is simply computed on first use, duplicate
// submissions coalesce onto one computation, and the serial collection
// pass that follows observes finished results in its own order. Every
// emitted table is therefore byte-identical for any worker count.

// workers resolves the effective worker count via the clamp shared with
// every other fan-out in the tree (pool.Workers): Jobs when positive,
// one worker per schedulable CPU when zero, and the serial path for
// negative values.
func (o Options) workers() int {
	return pool.Workers(o.Jobs)
}

// warm executes the batch on up to opt.workers() goroutines and waits
// for all of them (see pool.Warm). With a single worker it is a no-op:
// the serial collection path that follows computes each run itself,
// exactly as the pre-scheduler code did, so Jobs=1 is the old serial
// execution.
func warm(opt Options, batch []func()) {
	pool.Warm(opt.workers(), batch)
}

// mixRun is one (configuration, policy, mix, options) run of a warm
// batch.
type mixRun struct {
	cfg sim.Config
	pol namedPolicy
	mix workload.Mix
	opt Options
}

// mixRunBatch lists one run per (mix, policy) pair under cfg, policy-
// major. Compose batches across configurations with append before a
// single warmRuns call, to maximise overlap and to let configurations
// that differ only below the L2 share each mix's recording.
func mixRunBatch(cfg sim.Config, opt Options, mixes []workload.Mix, pols ...namedPolicy) []mixRun {
	batch := make([]mixRun, 0, len(mixes)*len(pols))
	for _, p := range pols {
		for _, mix := range mixes {
			batch = append(batch, mixRun{cfg, p, mix, opt})
		}
	}
	return batch
}

// warmMixRuns warms one run per (mix, policy) pair under cfg.
func warmMixRuns(cfg sim.Config, opt Options, mixes []workload.Mix, pols ...namedPolicy) {
	warmRuns(opt, mixRunBatch(cfg, opt, mixes, pols...))
}

// warmRuns warms a batch of mix runs, skipping duplicates; opt gives
// the worker count.
//
// A batch in which some mix has at least two replayable runs still to
// compute runs mix-major, one group of units per recording
// (streams.go). Such a group holds its recording: the record unit goes
// right after the previous group's first run, so the recording is made
// while the workers finish that group, and each of the group's units
// drops its hold when it ends. A group with fewer walks its runs
// directly, since recording costs most of a direct run.
//
// Any other batch keeps its order. Sampled runs never replay, so a
// sampled batch stays policy-major: every run of a mix waits on that
// mix's one functional profile, and mix-major order would start all
// workers on the same mix and leave all but one blocked while it
// profiles.
func warmRuns(opt Options, runs []mixRun) {
	if opt.workers() <= 1 {
		return // warm is a no-op: the serial collection pass computes each run
	}
	unit := func(r mixRun) func() {
		return func() { run(r.cfg, r.pol.Name, r.pol.New, r.mix, r.opt) }
	}
	seen := map[memoKey]bool{}
	var order []mixRun
	type group struct {
		key    streamKey
		runs   []mixRun
		record mixRun // a replayable run to compute, recorded under its config
		replay int    // replayable runs still to compute
	}
	var groups []*group
	byKey := map[streamKey]*group{}
	for _, r := range runs {
		cfg, c, key := cellFor(r.cfg, r.pol.New, r.mix, r.opt)
		if seen[key] {
			continue
		}
		seen[key] = true
		order = append(order, r)
		sk, ok := replayKey(cfg, c, r.mix, r.opt)
		g := byKey[sk]
		if g == nil {
			g = &group{key: sk}
			byKey[sk] = g
			groups = append(groups, g)
		}
		g.runs = append(g.runs, r)
		if ok && !memo.Contains(key) {
			g.replay++
			g.record = mixRun{cfg: cfg, mix: r.mix, opt: r.opt}
		}
	}
	var batch []func()
	held := false
	for _, g := range groups {
		held = held || g.replay >= 2
	}
	if !held {
		for _, r := range order {
			batch = append(batch, unit(r))
		}
		warm(opt, batch)
		return
	}
	// Holds are taken before any unit runs, so a record unit never
	// finds its group unheld.
	recordAhead := func(i int) {
		if i < len(groups) && groups[i].replay >= 2 {
			g := groups[i]
			hold(g.key, len(g.runs))
			batch = append(batch, recordUnit(g.key, g.record.cfg, g.record.mix, g.record.opt))
		}
	}
	recordAhead(0)
	for i, g := range groups {
		for j, r := range g.runs {
			u := unit(r)
			if g.replay >= 2 {
				key, run := g.key, u
				u = func() {
					defer release(key)
					run()
				}
			}
			batch = append(batch, u)
			if j == 0 {
				recordAhead(i + 1)
			}
		}
	}
	warm(opt, batch)
}

// threadedRunBatch builds the warm batch for coherent multi-threaded
// runs, one per (benchmark, policy) pair.
func threadedRunBatch(cfg sim.Config, opt Options, benches []workload.Benchmark, pols ...namedPolicy) []func() {
	batch := make([]func(), 0, len(benches)*len(pols))
	for _, b := range benches {
		for _, p := range pols {
			b, p := b, p
			batch = append(batch, func() { runThreaded(cfg, p.Name, p.New, b, opt) })
		}
	}
	return batch
}

// Baseline policy handles shared by the warm batches; the factories are
// stateless, so the values can be reused across goroutines.
func noniPol() namedPolicy { return namedPolicy{"noni", Noni()} }
func exPol() namedPolicy   { return namedPolicy{"ex", Ex()} }
