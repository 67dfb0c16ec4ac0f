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

// mixRunBatch builds the warm batch for one run per (mix, policy) pair
// under cfg. Compose batches across configurations with append before a
// single warm call to maximise overlap. Units are policy-major: in
// sampled mode every run of a mix waits on that mix's one functional
// profile, so mix-major order would start all workers on the same mix
// and leave all but one blocked while it profiles.
func mixRunBatch(cfg sim.Config, opt Options, mixes []workload.Mix, pols ...namedPolicy) []func() {
	batch := make([]func(), 0, len(mixes)*len(pols))
	for _, p := range pols {
		for _, mix := range mixes {
			mix, p := mix, p
			batch = append(batch, func() { run(cfg, p.Name, p.New, mix, opt) })
		}
	}
	return batch
}

// warmMixRuns warms one run per (mix, policy) pair under cfg.
func warmMixRuns(cfg sim.Config, opt Options, mixes []workload.Mix, pols ...namedPolicy) {
	warm(opt, mixRunBatch(cfg, opt, mixes, pols...))
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
