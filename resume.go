package lap

// Crash-safe resumable runs: the public face of internal/checkpoint.
// A CheckpointStore durably snapshots simulator state at interval
// boundaries (Config.CheckpointEvery accesses); a re-issued run whose
// key matches a stored checkpoint restores it and fast-forwards, with
// results byte-identical to an uninterrupted run. Every durability
// failure — a full disk, a corrupt file, a version skew — degrades to
// a cold start and is counted in the store's metrics; it never fails
// the run.

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CheckpointStore is a directory of versioned, CRC-validated, digest-
// keyed checkpoint files, written atomically (temp file + rename) so a
// crash mid-write never publishes a torn entry.
type CheckpointStore = checkpoint.Store

// OpenCheckpointStore creates (if needed) and opens the store at dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return checkpoint.Open(dir) }

// RunResumable is Run with durable checkpoints: every
// cfg.CheckpointEvery accesses the machine state is persisted to st,
// and a matching earlier checkpoint (same normalized config, policy,
// mix, scale, and seed) is restored and fast-forwarded instead of
// re-simulating from access zero. A nil store or zero CheckpointEvery
// runs exactly like Run. Configurations whose state the checkpoint
// codec does not cover (coherent, profiled, DRAM-backed, or sampled
// runs) silently run cold.
func RunResumable(cfg Config, p Policy, mix Mix, accesses, seed uint64, st *CheckpointStore) (Result, error) {
	if _, err := NewController(p, cfg); err != nil {
		return Result{}, err
	}
	if len(mix.Members) != cfg.Cores {
		return Result{}, fmt.Errorf("lap: mix %s has %d members for %d cores", mix.Name, len(mix.Members), cfg.Cores)
	}
	wl := checkpoint.MixWorkload(mix.Name, mix.Members, cfg.Cores, accesses, seed)
	mkCtrl := func() core.Controller {
		ctrl, err := NewController(p, cfg)
		if err != nil {
			// Unreachable: the same inputs resolved above.
			panic(err)
		}
		return ctrl
	}
	mkSrcs := func() ([]trace.Source, error) { return sim.MixSources(mix, accesses, seed) }
	return checkpoint.ResumableRun(st, cfg, wl, string(p), mkCtrl, mkSrcs)
}

// LoadOrBuildSampleProfile is BuildSampleProfile backed by the
// checkpoint store: a digest-matching persisted profile is restored
// (skipping the functional profiling pass entirely — only the trace
// positions are regenerated), and a freshly built profile is persisted
// for the next process. built reports which path ran. A nil store
// always builds.
func LoadOrBuildSampleProfile(cfg Config, mix Mix, accesses, seed uint64, st *CheckpointStore) (prof *SampleProfile, built bool, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	if cfg.SampleInterval == 0 {
		return nil, false, fmt.Errorf("lap: LoadOrBuildSampleProfile needs cfg.SampleInterval > 0")
	}
	if len(mix.Members) != cfg.Cores {
		return nil, false, fmt.Errorf("lap: mix %s has %d members for %d cores", mix.Name, len(mix.Members), cfg.Cores)
	}
	key := checkpoint.ProfileKey(cfg, checkpoint.MixWorkload(mix.Name, mix.Members, cfg.Cores, accesses, seed))
	codec := checkpoint.ProfileCodec[*sample.Profile]{
		Encode: func(p *sample.Profile) []byte { return p.Encode() },
		Decode: func(b []byte) (*sample.Profile, error) {
			srcs, err := sim.MixSources(mix, accesses, seed)
			if err != nil {
				return nil, err
			}
			return sample.DecodeProfile(b, srcs)
		},
	}
	intervals := func(p *sample.Profile) uint64 { return uint64(len(p.Intervals)) }
	build := func() (*sample.Profile, error) {
		srcs, err := sim.MixSources(mix, accesses, seed)
		if err != nil {
			return nil, err
		}
		return sample.BuildProfile(cfg, srcs, cfg.SampleInterval)
	}
	return checkpoint.LoadOrBuildProfile(st, key, intervals, codec, build)
}
