package experiments

import (
	"slices"

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
// that differ only below the L2 share each core's recording.
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
// The batch runs mix-major, one group of units per mix (streams.go):
// its sampled runs read the mix's functional profile, and its exact
// replayable runs replay the recordings of the mix's cores. A group
// holds its artifact when building it pays: a profile for any sampled
// run still to compute, recordings for two or more replayable ones
// (a group with fewer walks its runs directly, since recording costs
// most of a direct run). Each group's build unit goes just before the
// previous group's runs (the first group's leads the batch), so an
// artifact is built while the workers run the group before it; a core
// recording that an earlier group already built is recalled. Each of
// the group's units drops its holds when it ends, and a recording's
// last holder drops it. Resident profiles therefore stay bounded by the
// worker count plus one; planRecordings bounds the recordings.
func warmRuns(opt Options, runs []mixRun) {
	if opt.workers() <= 1 {
		return // warm is a no-op: the serial collection pass computes each run
	}
	type group struct {
		runs    []mixRun
		reads   []bool      // whether each run reads the group's artifact
		art     artifact    // the artifact of a run still to compute
		compute int         // the group's runs that read art, still to compute
		recs    *recordings // art if the group holds recordings
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
		g.reads = append(g.reads, art != nil)
		if art != nil && !memo.Contains(key) {
			g.art = art
			g.compute++
		}
	}
	cores := make([][]recKey, len(groups))
	for i, g := range groups {
		if g.art != nil && g.art.pays(g.compute) {
			g.recs, _ = g.art.(*recordings)
		} else {
			g.art = nil
		}
		if g.recs != nil {
			cores[i] = g.recs.keys
		}
	}
	planRecordings(cores, opt.workers())
	var batch []func()
	// Holds are taken before any unit runs, so a build unit never finds
	// its group unheld.
	buildAhead := func(i int) {
		if i < len(groups) && groups[i].art != nil {
			g := groups[i]
			g.art.hold(len(g.runs))
			batch = append(batch, g.art.build)
		}
	}
	buildAhead(0)
	for i, g := range groups {
		buildAhead(i + 1)
		for j, r := range g.runs {
			var recs []recKey
			if g.recs != nil && g.reads[j] {
				recs = g.recs.keys
			}
			u := func() { runFrom(recs, r.cfg, r.pol.Name, r.pol.New, r.mix, r.opt) }
			if art := g.art; art != nil {
				run := u
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

// planRecordings numbers the per-core recordings a warm batch makes,
// setting the Gen of each key in cores, where cores[i] lists the cores
// group i of the batch replays (nil for none). A recording is resident
// from the build of its first reader's group, which runs alongside the
// group before it, to its last reader. A core that several groups read
// is recorded once and kept between them, as long as at most
// (workers+3)·width recordings are resident, width being the most cores
// a group reads: the workers+1 mixes in flight, as many as when a batch
// held whole-mix recordings, plus two mixes' worth kept for later
// readers. Where more would be, the kept recordings whose next reader
// is farthest are dropped after their last reader so far, and that next
// reader's group records the core again (Belady's eviction rule). It
// returns the number of recordings and the peak resident under this
// model; a worker running behind can hold a few more for a while.
func planRecordings(cores [][]recKey, workers int) (n, peak int) {
	width := 0
	for _, ks := range cores {
		width = max(width, len(ks))
	}
	limit := (workers + 3) * width
	// next[i][j] is the first group after i to read cores[i][j], or
	// len(cores).
	next := make([][]int, len(cores))
	seen := map[sim.CoreKey]int{}
	for i := len(cores) - 1; i >= 0; i-- {
		next[i] = make([]int, len(cores[i]))
		for j, k := range cores[i] {
			if at, ok := seen[k.Core]; ok {
				next[i][j] = at
			} else {
				next[i][j] = len(cores)
			}
			seen[k.Core] = i
		}
	}
	type resident struct {
		core       sim.CoreKey
		gen        int
		last, next int // its latest reader so far and the one after
	}
	var live []resident // in the order they were recorded
	gens := map[sim.CoreKey]int{}
	// read gives group i's cores their recordings as its build unit
	// runs.
	read := func(i int) {
		for j := range cores[i] {
			k := &cores[i][j]
			r := slices.IndexFunc(live, func(r resident) bool { return r.core == k.Core })
			if r < 0 {
				r = len(live)
				live = append(live, resident{core: k.Core, gen: gens[k.Core]})
				gens[k.Core]++
				n++
			}
			k.Gen = live[r].gen
			live[r].last, live[r].next = i, next[i][j]
		}
	}
	if len(cores) > 0 {
		read(0)
	}
	for t := range cores {
		// Group t runs while group t+1 is built.
		if t+1 < len(cores) {
			read(t + 1)
		}
		for len(live) > limit {
			far := -1
			for r, res := range live {
				if res.last < t && (far < 0 || res.next > live[far].next) {
					far = r
				}
			}
			if far < 0 {
				break
			}
			live = slices.Delete(live, far, far+1)
		}
		peak = max(peak, len(live))
		live = slices.DeleteFunc(live, func(r resident) bool { return r.next == len(cores) && r.last <= t })
	}
	return n, peak
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
