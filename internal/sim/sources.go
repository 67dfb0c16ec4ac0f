package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Controller is a factory producing a fresh inclusion controller for one
// run. Controllers carry run state (set-dueling counters), so each
// simulation needs its own instance.
type Controller func() core.Controller

// coreSpaceShift separates the address spaces of multi-programmed cores,
// mirroring the paper's setup of independent benchmark copies per core.
const coreSpaceShift = 50

// MixSources builds one bounded trace source per core for a
// multi-programmed mix, offsetting each core into a disjoint address
// space. accesses bounds the per-core stream length.
func MixSources(mix workload.Mix, accesses uint64, seed uint64) ([]trace.Source, error) {
	benches, err := mix.Benchmarks()
	if err != nil {
		return nil, err
	}
	srcs := make([]trace.Source, len(benches))
	for i, b := range benches {
		srcs[i] = coreSource(b, i, accesses, seed)
	}
	return srcs, nil
}

// coreSource is the source of the core at position pos of a mix: it
// depends on the benchmark, the position, the length and the seed, and
// on nothing else of the mix.
func coreSource(b workload.Benchmark, pos int, accesses, seed uint64) trace.Source {
	gen := workload.New(b, seed+uint64(pos)*0x51ed2701)
	return trace.Limit(trace.WithOffset(gen, uint64(pos+1)<<coreSpaceShift), accesses)
}

// ThreadSources builds bounded per-thread sources for a multi-threaded
// workload sharing one address space.
func ThreadSources(b workload.Benchmark, threads int, accesses uint64, seed uint64) []trace.Source {
	raw := workload.Threads(b, threads, seed)
	srcs := make([]trace.Source, len(raw))
	for i, s := range raw {
		srcs[i] = trace.Limit(s, accesses)
	}
	return srcs
}

// RunMix is the common experiment step: simulate a mix under a controller.
func RunMix(cfg Config, ctrl Controller, mix workload.Mix, accesses, seed uint64) (Result, error) {
	srcs, err := mixSources(cfg, mix, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	return Run(cfg, ctrl(), srcs), nil
}

// mixSources is MixSources for a machine, which must have one core per
// mix member.
func mixSources(cfg Config, mix workload.Mix, accesses, seed uint64) ([]trace.Source, error) {
	if len(mix.Members) != cfg.Cores {
		return nil, fmt.Errorf("sim: mix %s has %d members for %d cores", mix.Name, len(mix.Members), cfg.Cores)
	}
	return MixSources(mix, accesses, seed)
}

// RunThreaded simulates a multi-threaded benchmark with coherence enabled.
func RunThreaded(cfg Config, ctrl Controller, b workload.Benchmark, accesses, seed uint64) Result {
	cfg.Coherent = true
	srcs := ThreadSources(b, cfg.Cores, accesses, seed)
	return Run(cfg, ctrl(), srcs)
}
