package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	memocache "repro/internal/memo"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/pool"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Experiments share many (config, policy, mix) simulation runs — e.g. the
// non-inclusive baseline appears in every figure. A process-wide memo
// avoids recomputing them when cmd/lapexp regenerates several artifacts in
// one invocation. Keys include every knob that affects a run.
//
// Under the parallel scheduler (sched.go) the memo is also the
// coordination point: it is a singleflight cache. The first request for a
// key computes the run while concurrent duplicates block on a per-key
// latch, so no simulation is ever executed twice no matter how many
// workers race for it. The machinery lives in internal/memo (promoted
// there so lapserved can share it); this file keeps the experiment-shaped
// key and the package-level wrappers so artifact generators and their
// determinism tests are unaffected by the extraction.

// memoKey identifies one simulation run. sim.Config is embedded by value,
// so the compiler rejects this type as a map key the moment Config gains
// a non-comparable (slice/map/func) field — the memo breaks loudly at
// build time instead of silently keying every run differently, which the
// old fmt.Sprintf("%+v") fingerprint could not guarantee.
// TestMemoKeyConfigFields additionally rejects pointer fields, which
// would compare by identity rather than by value.
type memoKey struct {
	Cfg        sim.Config
	Policy     string
	Mix        string
	Threaded   bool
	Accesses   uint64
	Seed       uint64
	DuelPeriod uint64
}

// runKey builds the memo key. Options contributes only the knobs that
// change a run's outcome; scheduling knobs (Jobs) are deliberately
// excluded — and Config.CheckpointEvery normalised away — so serial,
// parallel and checkpointed invocations share entries.
func runKey(cfg sim.Config, policy string, mix workload.Mix, threaded bool, opt Options) memoKey {
	cfg.CheckpointEvery = 0
	return memoKey{
		Cfg:        cfg,
		Policy:     policy,
		Mix:        mixID(mix),
		Threaded:   threaded,
		Accesses:   opt.Accesses,
		Seed:       opt.Seed,
		DuelPeriod: opt.DuelPeriod,
	}
}

// mixID names a mix in memo keys by its name and members.
func mixID(mix workload.Mix) string {
	return mix.Name + "[" + strings.Join(mix.Members, ",") + "]"
}

// memo is the process-wide singleflight run cache. Artifact sweeps are
// finite (one lapexp invocation touches a bounded set of runs), so the
// cache is unbounded here; lapserved builds its own bounded instance.
var memo = memocache.New[memoKey, sim.Result](0)

// cellFor applies opt's run knobs to cfg, builds the run's controller
// and returns the run's memo key. The cell is keyed by the controller's
// Name(), not by the caller's display label, so two labels for one
// controller ("ex" and "Exclusive") share one cell. A factory must
// therefore name its controller uniquely among those run under the same
// configuration and options.
func cellFor(cfg sim.Config, ctrl sim.Controller, mix workload.Mix, opt Options) (sim.Config, core.Controller, memoKey) {
	if opt.Checkpoints != nil && opt.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opt.CheckpointEvery
	}
	c := ctrl()
	if sampleEligible(cfg, c.Name(), opt) {
		cfg.SampleInterval = opt.SampleInterval
		cfg.SampleClusters = opt.SampleClusters
		cfg.SampleWarmup = opt.SampleWarmup
	}
	return cfg, c, runKey(cfg, c.Name(), mix, false, opt)
}

// runE executes (or recalls) one simulation, with the run's failure
// domain contained to its own memo cell: a panicking simulation becomes
// a typed *pool.RunError, a configuration error propagates as-is, and
// either way nothing is cached (a retry recomputes). An exact run given
// the recordings recs of its cores replays them if a warm batch holds
// them all (streams.go); every other run walks its private levels
// directly. A sampled run holds its mix's profile while a warm batch
// does.
func runE(cfg sim.Config, ctrl sim.Controller, mix workload.Mix, opt Options, recs []recKey) (sim.Result, error) {
	cfg, c, key := cellFor(cfg, ctrl, mix, opt)
	cell := key.Mix + "|" + key.Policy
	ctx, sp := cellSpan(opt, cell)
	res, err := memo.DoErr(ctx, key, func() (res sim.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = pool.Recovered(cell, r)
			}
		}()
		if err := fault.Inject(fault.PointExpRun, cell); err != nil {
			return sim.Result{}, err
		}
		if cfg.SampleInterval > 0 {
			pk := profileKeyFor(cfg, mix, opt)
			if profiles.holdIfHeld(pk) {
				defer profiles.release(pk)
			}
			prof, err := profileFor(ctx, pk, cfg, mix, opt)
			if err != nil {
				return sim.Result{}, err
			}
			sr, err := sample.Run(cfg, c, prof)
			return sr.Sim, err
		}
		if opt.Checkpoints != nil && cfg.CheckpointEvery > 0 {
			if len(mix.Members) != cfg.Cores {
				return sim.Result{}, fmt.Errorf("experiments: mix %s has %d members for %d cores", mix.Name, len(mix.Members), cfg.Cores)
			}
			// The policy descriptor must pin everything the controller
			// factory bakes in beyond the name; DuelPeriod is the one
			// knob registry closures vary.
			wl := checkpoint.MixWorkload(mix.Name, mix.Members, cfg.Cores, opt.Accesses, opt.Seed)
			pol := fmt.Sprintf("%s|duel=%d", key.Policy, opt.DuelPeriod)
			return checkpoint.ResumableRun(opt.Checkpoints, cfg, wl, pol, ctrl, func() ([]trace.Source, error) {
				return sim.MixSources(mix, opt.Accesses, opt.Seed)
			})
		}
		if len(recs) > 0 && streams.holdIfHeld(recs...) {
			defer streams.release(recs...)
			cores := make([]*sim.Recording, len(recs))
			for i, k := range recs {
				if cores[i], err = recordingFor(ctx, k, cfg); err != nil {
					return sim.Result{}, err
				}
			}
			return sim.Replay(cfg, c, mix, opt.Accesses, opt.Seed, cores)
		}
		return sim.RunMix(cfg, func() core.Controller { return c }, mix, opt.Accesses, opt.Seed)
	})
	sp.End()
	return res, err
}

// sampleEligible reports whether sampled mode applies to this run: the
// sweep asked for it, the policy's registry entry allows it (predictor
// policies whose state cannot survive interval jumps are exact-only),
// and the configuration has none of the features sampling cannot
// represent (cross-interval coherent state, the redundancy profiler, or
// explicit warmup/length bounds). Ineligible runs silently stay exact
// so artifact code never has to special-case. policyName is the
// controller's name; names the registry does not know (the Fig. 25
// stages, "LAP+Winv") get no policy-level restriction.
func sampleEligible(cfg sim.Config, policyName string, opt Options) bool {
	if info, ok := core.LookupPolicy(policyName); ok && !info.SampledEligible {
		return false
	}
	return opt.SampleInterval > 0 &&
		!cfg.Coherent && !cfg.Profile &&
		cfg.WarmupAccessesPerCore == 0 && cfg.MaxAccessesPerCore == 0
}

// profileKey identifies one functional profile. Policy is absent —
// profiles are policy-independent — and the cluster/warmup knobs are
// normalised away: they shape the replay, not the profile.
type profileKey struct {
	Cfg      sim.Config
	Mix      string
	Accesses uint64
	Seed     uint64
}

func profileKeyFor(cfg sim.Config, mix workload.Mix, opt Options) profileKey {
	cfg.SampleClusters = 0
	cfg.SampleWarmup = 0
	return profileKey{
		Cfg:      cfg,
		Mix:      mixID(mix),
		Accesses: opt.Accesses,
		Seed:     opt.Seed,
	}
}

// profiles caches one functional profile per (config, mix, scale); a
// Fig. 14-style sweep then pays one profiling pass for its six-plus
// policies per mix. Like a core recording, a profile a warm batch holds
// is dropped after the batch's last run that reads it (streams.go).
var profiles = newHeldMemo[profileKey, *sample.Profile]("profiles", "profile")

// profileFor returns key's profile, building it on first use.
func profileFor(ctx context.Context, key profileKey, cfg sim.Config, mix workload.Mix, opt Options) (*sample.Profile, error) {
	return profiles.get(ctx, key, func() (*sample.Profile, error) {
		build := func() (*sample.Profile, error) {
			srcs, err := sim.MixSources(mix, opt.Accesses, opt.Seed)
			if err != nil {
				return nil, err
			}
			return sample.BuildProfile(cfg, srcs, cfg.SampleInterval)
		}
		if opt.Checkpoints == nil {
			return build()
		}
		// With a store attached, a digest-matching persisted profile
		// replaces the functional pass (replay positions are rebuilt from
		// fresh sources); a freshly built one is persisted for the next
		// process. Store failures degrade to build().
		ck := checkpoint.ProfileKey(key.Cfg,
			checkpoint.MixWorkload(mix.Name, mix.Members, cfg.Cores, opt.Accesses, opt.Seed))
		codec := checkpoint.ProfileCodec[*sample.Profile]{
			Encode: func(p *sample.Profile) []byte { return p.Encode() },
			Decode: func(b []byte) (*sample.Profile, error) {
				srcs, err := sim.MixSources(mix, opt.Accesses, opt.Seed)
				if err != nil {
					return nil, err
				}
				return sample.DecodeProfile(b, srcs)
			},
		}
		prof, _, err := checkpoint.LoadOrBuildProfile(opt.Checkpoints, ck,
			func(p *sample.Profile) uint64 { return uint64(len(p.Intervals)) }, codec, build)
		return prof, err
	})
}

// cellSpan opens a per-cell root span on opt.Trace (nil-safe, zero cost
// when tracing is off). The span's ctx flows into the memo, so the
// recorded timeline distinguishes computes from recalls per cell.
func cellSpan(opt Options, cell string) (context.Context, *otrace.Span) {
	ctx, sp := opt.Trace.Root(context.Background(), "cell", otrace.Str("cell", cell))
	if sp != nil {
		opt.Trace.NameTrack(otrace.PidWall, sp.ID(), cell)
	}
	return ctx, sp
}

// run is runE for the static experiment definitions of this package,
// where a failing run is a bug: it panics with the cell label so the
// per-artifact containment in cmd/lapexp can report which run died.
func run(cfg sim.Config, policyName string, ctrl sim.Controller, mix workload.Mix, opt Options) sim.Result {
	return runFrom(nil, cfg, policyName, ctrl, mix, opt)
}

// runFrom is run for a warm-batch unit that may replay the recordings
// recs (nil for none).
func runFrom(recs []recKey, cfg sim.Config, policyName string, ctrl sim.Controller, mix workload.Mix, opt Options) sim.Result {
	res, err := runE(cfg, ctrl, mix, opt, recs)
	if err != nil {
		panic(fmt.Sprintf("experiments: run %s[%s]|%s: %v",
			mix.Name, strings.Join(mix.Members, ","), policyName, err))
	}
	return res
}

// runThreadedE executes (or recalls) one coherent multi-threaded run,
// with the same failure containment and cell identity as runE.
func runThreadedE(cfg sim.Config, ctrl sim.Controller, b workload.Benchmark, opt Options) (sim.Result, error) {
	c := ctrl()
	key := runKey(cfg, c.Name(), workload.Mix{Name: b.Name}, true, opt)
	cell := key.Mix + "|" + key.Policy
	ctx, sp := cellSpan(opt, cell)
	res, err := memo.DoErr(ctx, key, func() (res sim.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = pool.Recovered(cell, r)
			}
		}()
		if err := fault.Inject(fault.PointExpRun, cell); err != nil {
			return sim.Result{}, err
		}
		return sim.RunThreaded(cfg, func() core.Controller { return c }, b, opt.Accesses, opt.Seed), nil
	})
	sp.End()
	return res, err
}

// runThreaded is run's panicking counterpart for threaded runs.
func runThreaded(cfg sim.Config, policyName string, ctrl sim.Controller, b workload.Benchmark, opt Options) sim.Result {
	res, err := runThreadedE(cfg, ctrl, b, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: threaded run %s|%s: %v", b.Name, policyName, err))
	}
	return res
}

// RegisterMetrics exposes the process-wide run memo and worker-pool
// counters on an optional obs registry under namespace ns (cmd/lapexp
// passes "lapexp", so its -timings JSON and a future /metrics share
// series names). A nil registry is a no-op.
func RegisterMetrics(r *obs.Registry, ns string) {
	memo.Register(r, ns+"_memo")
	profiles.Register(r, ns+"_profile_memo")
	streams.Register(r, ns+"_stream_memo")
	pool.Register(r, ns+"_pool")
	sample.RegisterMetrics(r, ns)
}

// ResetMemo clears the run cache and drops every profile and recorded
// stream (tests and benchmarks use it to bound memory and force
// recomputation). See memo.Cache.Reset for the contract under
// concurrency; the Stats counters survive a reset.
func ResetMemo() {
	memo.Reset()
	profiles.Reset()
	streams.Reset()
}

// MemoStats counts run-cache activity since process start: Computed is
// the number of simulations actually executed, Recalled the number of
// requests served from the cache (including requests that waited on an
// in-flight computation), Failed the number of runs that errored or
// panicked (and were not cached). ResetMemo does not reset the counters,
// so deltas around a code region meter its simulation cost (this is how
// cmd/lapexp -timings derives per-artifact runs/sec).
type MemoStats struct {
	Computed uint64 `json:"computed"`
	Recalled uint64 `json:"recalled"`
	Failed   uint64 `json:"failed,omitempty"`
}

// Stats snapshots the memo counters.
func Stats() MemoStats {
	s := memo.Stats()
	return MemoStats{Computed: s.Computed, Recalled: s.Recalled, Failed: s.Failed}
}
