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

// mixRunBatch lists one run per (mix, policy) pair under cfg, mix-
// major. Compose batches across configurations with append before a
// single warmRuns call, to maximise overlap and to let configurations
// that differ only below the L2 share each mix's recording.
func mixRunBatch(cfg sim.Config, opt Options, mixes []workload.Mix, pols ...namedPolicy) []mixRun {
	batch := make([]mixRun, 0, len(mixes)*len(pols))
	for _, mix := range mixes {
		for _, p := range pols {
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
// The batch runs mix-major, one group of units per per-mix artifact
// (streams.go): the functional profile that a mix's sampled runs read,
// or the recording that its exact replayable runs replay. A group
// holds its artifact when building it pays: a profile for any sampled
// run still to compute, a recording for two or more replayable ones
// (a group with fewer walks its runs directly, since recording costs
// most of a direct run). Each group's build unit goes just before the
// previous group's runs (the first group's leads the batch), so an
// artifact is built while the workers run the group before it. Each of
// the group's units drops its hold when it ends, and the last drops
// the artifact, so resident artifacts stay bounded by the worker count
// plus one.
func warmRuns(opt Options, runs []mixRun) {
	if opt.workers() <= 1 {
		return // warm is a no-op: the serial collection pass computes each run
	}
	type group struct {
		runs    []mixRun
		art     artifact // the artifact of a run still to compute
		compute int      // the group's runs that read art, still to compute
	}
	var groups []*group
	byKey := map[groupKey]*group{}
	seen := map[memoKey]bool{}
	for _, r := range runs {
		cfg, c, key := cellFor(r.cfg, r.pol.New, r.mix, r.opt)
		if seen[key] {
			continue
		}
		seen[key] = true
		gk, art := artifactFor(cfg, c, r.mix, r.opt)
		g := byKey[gk]
		if g == nil {
			g = &group{}
			byKey[gk] = g
			groups = append(groups, g)
		}
		g.runs = append(g.runs, r)
		if art != nil && !memo.Contains(key) {
			g.art = art
			g.compute++
		}
	}
	held := func(g *group) bool { return g.art != nil && g.art.pays(g.compute) }
	var batch []func()
	// Holds are taken before any unit runs, so a build unit never finds
	// its group unheld.
	buildAhead := func(i int) {
		if i < len(groups) && held(groups[i]) {
			g := groups[i]
			g.art.hold(len(g.runs))
			batch = append(batch, g.art.build)
		}
	}
	buildAhead(0)
	for i, g := range groups {
		buildAhead(i + 1)
		for _, r := range g.runs {
			u := func() { run(r.cfg, r.pol.Name, r.pol.New, r.mix, r.opt) }
			if held(g) {
				art, run := g.art, u
				u = func() {
					defer art.release()
					run()
				}
			}
			batch = append(batch, u)
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
