package checkpoint

// Run-side orchestration: the resume-from-latest-valid-checkpoint flow
// shared by lap, internal/experiments, and lapserved. The store holds
// opaque payloads; this file knows how to key them (normalized config
// digest × workload digest), apply them to a machine, and — the
// robustness contract — degrade every durability failure to a cold
// start. A missing store, a corrupt entry, an injected fault, or an
// unusable payload never fails the run; it only costs the fast-forward.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DigestSimConfig hashes a simulator configuration for checkpoint
// keying, normalizing CheckpointEvery, which does not affect results
// (the memo layers exclude it too), so a run checkpointed at one
// spacing resumes at any other.
func DigestSimConfig(cfg sim.Config) string {
	cfg.CheckpointEvery = 0
	return DigestJSON(cfg)
}

// RunKey builds the store key for one exact run: the normalized config
// digest crossed with a workload descriptor that must pin everything
// else the simulation depends on — mix members, accesses, seed, and
// policy (controller state lives inside the payload).
func RunKey(cfg sim.Config, workload, policy string) Key {
	return Key{
		Kind:     KindRun,
		Config:   DigestSimConfig(cfg),
		Workload: Digest(workload, "policy="+policy),
	}
}

// ResumableRun executes one exact simulation with durable checkpoints:
// it restores the latest valid checkpoint for the key (if any), fast-
// forwards, and keeps snapshotting every cfg.CheckpointEvery accesses.
// mkCtrl and mkSrcs are factories because a failed restore taints the
// controller and sources it was attempted on: the cold retry rebuilds
// both. With a nil store the run simply executes cold, unchecked.
//
// The result is byte-identical to an uninterrupted run on the same
// inputs, whichever path was taken.
func ResumableRun(st *Store, cfg sim.Config, workload, policy string, mkCtrl func() core.Controller, mkSrcs func() ([]trace.Source, error)) (sim.Result, error) {
	run := func(resume []byte, sink sim.CheckpointSink) (sim.Result, error) {
		srcs, err := mkSrcs()
		if err != nil {
			return sim.Result{}, err
		}
		return sim.RunCheckpointed(cfg, mkCtrl(), srcs, resume, sink)
	}
	if st == nil || cfg.CheckpointEvery == 0 {
		return run(nil, nil)
	}

	key := RunKey(cfg, workload, policy)
	sink := func(interval, accesses uint64, payload []byte) {
		// Durability failures are counted in the store's metrics and
		// otherwise ignored: the run must not care.
		_ = st.Put(key, Entry{Interval: interval, Accesses: accesses, Payload: payload})
	}

	if ent, err := st.Latest(key); err == nil {
		if ferr := fault.Inject(fault.PointCheckpointRestore, key.String()); ferr != nil {
			st.NoteRestoreFailed()
		} else if res, rerr := run(ent.Payload, sink); rerr == nil {
			st.NoteRestored(ent.Interval)
			return res, nil
		} else {
			// CRC-valid but unusable (payload version or shape drift).
			// Count it, quarantine the stream so the next run does not
			// retry it, and fall through to a cold start.
			st.NoteRestoreFailed()
			st.Drop(key)
		}
	}
	return run(nil, sink)
}

// ErrProfileNotForkable reports sources that cannot back a restored
// profile (they must support fork-and-skip replay).
var ErrProfileNotForkable = errors.New("checkpoint: profile sources are not forkable")

// Profile persistence is expressed through function values so this
// package does not import internal/sample (sample imports sim; keeping
// the store below both leaves the profile codec with its owner).
type (
	// ProfileBuilder runs the functional profiling pass from scratch.
	ProfileBuilder[P any] func() (P, error)
	// ProfileCodec encodes a profile to bytes / decodes one from bytes.
	ProfileCodec[P any] struct {
		Encode func(P) []byte
		Decode func([]byte) (P, error)
	}
)

// ProfileKey builds the store key for one sampling profile. Profiles
// are policy-independent, and the cluster/warmup knobs shape the replay
// rather than the profile, so they are normalized out of the digest
// (mirroring the in-process profile memo); the workload descriptor must
// pin the trace and per-core length.
func ProfileKey(cfg sim.Config, workload string) Key {
	cfg.SampleClusters = 0
	cfg.SampleWarmup = 0
	return Key{
		Kind:     KindProfile,
		Config:   DigestSimConfig(cfg),
		Workload: Digest(workload),
	}
}

// LoadOrBuildProfile returns the profile for key, loading it from the
// store when a digest-matching entry exists and building + persisting
// it otherwise. built reports which path ran (false = cache hit, the
// functional pass was skipped). Durability failures degrade to a fresh
// build, never an error; err is only a build failure.
func LoadOrBuildProfile[P any](st *Store, key Key, intervals func(P) uint64, codec ProfileCodec[P], build ProfileBuilder[P]) (p P, built bool, err error) {
	if st != nil {
		if ent, lerr := st.Latest(key); lerr == nil {
			if ferr := fault.Inject(fault.PointCheckpointRestore, key.String()); ferr != nil {
				st.NoteRestoreFailed()
			} else if prof, derr := codec.Decode(ent.Payload); derr == nil {
				st.NoteRestored(intervals(prof))
				return prof, false, nil
			} else {
				st.NoteRestoreFailed()
				st.Drop(key)
			}
		}
	}
	p, err = build()
	if err != nil {
		return p, false, err
	}
	if st != nil {
		payload := codec.Encode(p)
		_ = st.Put(key, Entry{Interval: intervals(p), Accesses: 0, Payload: payload})
	}
	return p, true, nil
}

// String-building helper shared by the callers that label workloads.
// Mixes are described as "mix:NAME[members]|cores=N|acc=N|seed=N".
func MixWorkload(name string, members []string, cores int, accesses, seed uint64) string {
	desc := name + "["
	for i, m := range members {
		if i > 0 {
			desc += ","
		}
		desc += m
	}
	return fmt.Sprintf("mix:%s]|cores=%d|acc=%d|seed=%d", desc, cores, accesses, seed)
}
