// Package lap is a reproduction of "LAP: Loop-Block Aware Inclusion
// Properties for Energy-Efficient Asymmetric Last Level Caches"
// (Cheng et al., ISCA 2016) as a self-contained Go library.
//
// It provides a trace-driven, cycle-approximate simulator of a multi-core
// three-level cache hierarchy whose L2↔LLC inclusion property is
// pluggable: the traditional inclusive/non-inclusive/exclusive policies,
// the FLEXclusion and Dswitch dynamic-switching baselines, the paper's
// Loop-block-Aware Policy (LAP) in all its variants, and the Lhybrid
// data-placement policy for hybrid SRAM/STT-RAM LLCs. An NVSim/CACTI-
// derived energy model reports the paper's headline metric, LLC
// energy-per-instruction (EPI).
//
// Quick start:
//
//	cfg := lap.DefaultConfig()                   // Table II system, STT-RAM LLC
//	mix := lap.TableIII()[5]                     // the paper's WH1 mix
//	res, err := lap.Run(cfg, lap.PolicyLAP, mix, 400_000, 1)
//	if err != nil { ... }
//	fmt.Println(res.EPI.Total(), res.Throughput)
//
// The full experiment suite that regenerates every table and figure of
// the paper lives in cmd/lapexp; see DESIGN.md and EXPERIMENTS.md.
package lap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	otrace "repro/internal/obs/trace"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported building blocks. These aliases form the public surface of
// the library; the internal packages stay free to evolve.
type (
	// Config describes the simulated machine (see DefaultConfig).
	Config = sim.Config
	// Result is one simulation run's outcome.
	Result = sim.Result
	// Mix is a multi-programmed workload, one benchmark name per core.
	Mix = workload.Mix
	// Benchmark is a synthetic workload surrogate.
	Benchmark = workload.Benchmark
	// Tech is a memory technology's energy/latency description.
	Tech = energy.Tech
	// Access is one memory reference of a trace.
	Access = trace.Access
	// Source is a stream of accesses driving one core.
	Source = trace.Source
	// FieldError is a Config validation failure naming the bad field.
	FieldError = sim.FieldError
	// Telemetry is the per-interval observation hook for the Observed run
	// variants; build one by hand or with TraceTelemetry.
	Telemetry = sim.Telemetry
	// Interval is one telemetry window's counters.
	Interval = sim.Interval
	// Tracer records spans and counters for the trace-event exporters
	// (see internal/obs/trace); NewTracer constructs one.
	Tracer = otrace.Tracer
	// SampleProfile is a functional profiling pass's outcome: interval
	// signatures plus source checkpoints, reusable across policies.
	SampleProfile = sample.Profile
	// SampleEstimate is a sampled run's error report, carried in
	// Result.Sample (nil on exact runs).
	SampleEstimate = sim.SampleEstimate
)

// MaxCores bounds Config.Cores and a threaded run's thread count.
const MaxCores = sim.MaxCores

// Policy names an inclusion property implemented by this library. Every
// policy is an entry in the internal/core registry; the constants below
// name the registered set, but any registered name (case-insensitively,
// optionally with a "+DWB" suffix) is a valid Policy.
type Policy string

// The implemented inclusion policies: the paper's Table IV set plus the
// STT-RAM competitor policies from the follow-up literature.
const (
	PolicyNonInclusive  Policy = "non-inclusive"
	PolicyExclusive     Policy = "exclusive"
	PolicyInclusive     Policy = "inclusive"
	PolicyFLEXclusion   Policy = "FLEXclusion"
	PolicyDswitch       Policy = "Dswitch"
	PolicyLAP           Policy = "LAP"
	PolicyLAPLRU        Policy = "LAP-LRU"
	PolicyLAPLoop       Policy = "LAP-Loop"
	PolicyLhybrid       Policy = "Lhybrid"
	PolicyReuseDetector Policy = "reuse-detector"
	PolicyRDCopyback    Policy = "rd-copyback"
)

// Policies returns every registered policy in Table IV order (the
// competitor policies follow the paper's set).
func Policies() []Policy {
	names := core.PolicyNames()
	out := make([]Policy, len(names))
	for i, n := range names {
		out[i] = Policy(n)
	}
	return out
}

// ResolvePolicies parses a policy argument — a single name, a comma
// list, or "all" — under cfg, returning canonical policies with
// duplicates collapsed plus notices for policies "all" skipped as
// ineligible (hybrid-only on a uniform LLC, sampled-ineligible when
// cfg.SampleInterval > 0). Explicitly requesting an ineligible or
// unknown name returns a *FieldError on "Policy".
func ResolvePolicies(cfg Config, arg string) ([]Policy, []string, error) {
	names, notices, err := cfg.ResolvePolicies(arg)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Policy, len(names))
	for i, n := range names {
		out[i] = Policy(n)
	}
	return out, notices, nil
}

// DefaultConfig returns the paper's Table II system: 4 cores at 3GHz,
// 32KB L1s, 512KB L2s, and a shared 8MB 16-way STT-RAM L3 in 4 banks.
// Use the Config.WithSRAML3 / WithSTTL3 / WithHybridL3 helpers to vary
// the LLC technology.
func DefaultConfig() Config { return sim.DefaultConfig() }

// SRAM and STTRAM return the Table I technology models.
func SRAM() Tech { return energy.SRAM() }

// STTRAM returns the Table I STT-RAM model; scale its write/read energy
// ratio with Tech.WithWriteReadRatio for Figure 23-style studies.
func STTRAM() Tech { return energy.STTRAM() }

// NewController builds a fresh inclusion controller for one run by
// resolving p against the policy registry under cfg (the Dswitch policy
// derives its energy cost model from cfg). Appending "+DWB" to any
// policy name wraps it with the dead-write-bypass predictor (the
// paper's orthogonal reference [34]), e.g. "LAP+DWB". Unknown names and
// policies cfg cannot run return a *FieldError on "Policy".
func NewController(p Policy, cfg Config) (core.Controller, error) {
	return cfg.NewPolicyController(string(p), 0)
}

// Run simulates a multi-programmed mix (one member per core) under the
// given policy for accesses references per core, seeded deterministically.
func Run(cfg Config, p Policy, mix Mix, accesses, seed uint64) (Result, error) {
	return RunObserved(cfg, p, mix, accesses, seed, nil)
}

// RunObserved is Run with an optional epoch/interval telemetry hook; a
// nil tel is exactly Run.
func RunObserved(cfg Config, p Policy, mix Mix, accesses, seed uint64, tel *Telemetry) (Result, error) {
	ctrl, err := NewController(p, cfg)
	if err != nil {
		return Result{}, err
	}
	if len(mix.Members) != cfg.Cores {
		return Result{}, fmt.Errorf("lap: mix %s has %d members for %d cores", mix.Name, len(mix.Members), cfg.Cores)
	}
	srcs, err := sim.MixSources(mix, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	return sim.RunObserved(cfg, ctrl, srcs, tel), nil
}

// BuildSampleProfile runs the functional profiling pass for sampled
// simulation over a mix: every access executes once in functional mode
// under a fixed policy-independent controller, producing per-interval
// signatures (window length cfg.SampleInterval, which must be set) and
// source checkpoints. The profile is reusable across policies — build
// it once per (config, workload) and replay it with RunSampledProfile
// for each policy of a sweep.
func BuildSampleProfile(cfg Config, mix Mix, accesses, seed uint64) (*SampleProfile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleInterval == 0 {
		return nil, fmt.Errorf("lap: BuildSampleProfile needs cfg.SampleInterval > 0")
	}
	if len(mix.Members) != cfg.Cores {
		return nil, fmt.Errorf("lap: mix %s has %d members for %d cores", mix.Name, len(mix.Members), cfg.Cores)
	}
	srcs, err := sim.MixSources(mix, accesses, seed)
	if err != nil {
		return nil, err
	}
	return sample.BuildProfile(cfg, srcs, cfg.SampleInterval)
}

// RunSampledProfile replays a profile against one policy: cluster the
// intervals, simulate one representative per cluster in detail, and
// extrapolate by cluster weight. The returned Result carries its error
// report in Result.Sample.
func RunSampledProfile(cfg Config, p Policy, prof *SampleProfile) (Result, error) {
	ctrl, err := NewController(p, cfg)
	if err != nil {
		return Result{}, err
	}
	r, err := sample.Run(cfg, ctrl, prof)
	if err != nil {
		return Result{}, err
	}
	return r.Sim, nil
}

// RunSampled is the one-shot convenience: profile the mix, then replay
// it against one policy. For multi-policy sweeps, build the profile
// once with BuildSampleProfile and share it instead.
func RunSampled(cfg Config, p Policy, mix Mix, accesses, seed uint64) (Result, error) {
	prof, err := BuildSampleProfile(cfg, mix, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	return RunSampledProfile(cfg, p, prof)
}

// RunThreaded simulates a multi-threaded benchmark (one thread per core,
// shared address space, snooping coherence) under the given policy.
func RunThreaded(cfg Config, p Policy, b Benchmark, accesses, seed uint64) (Result, error) {
	return RunThreadedObserved(cfg, p, b, accesses, seed, nil)
}

// RunThreadedObserved is RunThreaded with an optional telemetry hook.
func RunThreadedObserved(cfg Config, p Policy, b Benchmark, accesses, seed uint64, tel *Telemetry) (Result, error) {
	ctrl, err := NewController(p, cfg)
	if err != nil {
		return Result{}, err
	}
	cfg.Coherent = true
	srcs := sim.ThreadSources(b, cfg.Cores, accesses, seed)
	return sim.RunObserved(cfg, ctrl, srcs, tel), nil
}

// RunTraces simulates arbitrary per-core access streams (e.g. loaded from
// trace files) under the given policy.
func RunTraces(cfg Config, p Policy, srcs []Source) (Result, error) {
	return RunTracesObserved(cfg, p, srcs, nil)
}

// RunTracesObserved is RunTraces with an optional telemetry hook.
func RunTracesObserved(cfg Config, p Policy, srcs []Source, tel *Telemetry) (Result, error) {
	ctrl, err := NewController(p, cfg)
	if err != nil {
		return Result{}, err
	}
	if len(srcs) != cfg.Cores {
		return Result{}, fmt.Errorf("lap: %d sources for %d cores", len(srcs), cfg.Cores)
	}
	return sim.RunObserved(cfg, ctrl, srcs, tel), nil
}

// NewTracer returns an enabled span tracer whose ring holds at most
// capacity events (<= 0 selects the default bound). The ring grows as
// events are recorded, so a large bound costs memory only once it fills.
func NewTracer(capacity int) *Tracer { return otrace.New(capacity) }

// TraceTelemetry builds a Telemetry that renders a run as a
// simulated-time timeline on tr: a "run" span on a track named name, a
// nested "warmup" span, one "epoch" span per interval of the given
// length (in accesses summed over cores), and per-interval counter
// series. Nil — telemetry fully off — when tr is nil or disabled.
func TraceTelemetry(tr *Tracer, name string, interval uint64) *Telemetry {
	return sim.TraceTelemetry(tr, name, interval)
}

// SPEC returns the SPEC CPU2006 workload surrogates (Fig. 2/4/6).
func SPEC() []Benchmark { return workload.SPEC() }

// PARSEC returns the multi-threaded PARSEC surrogates (Fig. 20).
func PARSEC() []Benchmark { return workload.PARSEC() }

// BenchmarkByName resolves a benchmark, accepting the paper's
// abbreviations (omn, xalan, lib, Gems).
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// TableIII returns the paper's ten selected workload mixes WL1-WH5.
func TableIII() []Mix { return workload.TableIII() }

// RandomMixes reproduces the paper's 50-random-mix methodology.
func RandomMixes(n, width int, seed uint64) []Mix { return workload.RandomMixes(n, width, seed) }

// DuplicateMix returns n copies of one benchmark, the Figure 2 setup.
func DuplicateMix(name string, n int) Mix { return workload.Duplicate(name, n) }

// NewWorkloadSource returns an endless deterministic access stream for a
// benchmark; bound it with trace.Limit via RunTraces, or pass accesses to
// Run/RunThreaded instead.
func NewWorkloadSource(b Benchmark, seed uint64) Source { return workload.New(b, seed) }
