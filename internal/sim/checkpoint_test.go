package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// ckTestConfig is a small geometry that still exercises warmup,
// banked-LLC timing state, and both warm phases around the checkpoint
// boundaries.
func ckTestConfig() Config {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 10_000
	cfg.WarmupAccessesPerCore = 5_000
	return cfg
}

func ckControllers() map[string]func() core.Controller {
	return map[string]func() core.Controller{
		"LAP":      func() core.Controller { return core.NewLAP() },
		"FLEX":     func() core.Controller { return core.NewFLEXclusion() },
		"noni":     func() core.Controller { return core.NewNonInclusive() },
		"noni+DWB": func() core.Controller { return core.NewDeadWriteBypass(core.NewNonInclusive()) },
	}
}

// TestCheckpointResumeByteIdentical is the tentpole guarantee: for every
// checkpoint taken during a run, rebuilding the machine, restoring that
// snapshot, and finishing the run yields a Result deeply equal to the
// uninterrupted run's — including float64 cycle counts bit-for-bit.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	mix := workload.TableIII()[0]
	const accesses, seed = 30_000, 7

	for name, mk := range ckControllers() {
		t.Run(name, func(t *testing.T) {
			cfg := ckTestConfig()

			srcs, err := MixSources(mix, accesses, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := Run(cfg, mk(), srcs)

			type snap struct {
				interval, accesses uint64
				payload            []byte
			}
			var snaps []snap
			srcs, _ = MixSources(mix, accesses, seed)
			got, err := RunCheckpointed(cfg, mk(), srcs, nil, func(iv, acc uint64, p []byte) {
				snaps = append(snaps, snap{iv, acc, append([]byte(nil), p...)})
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("checkpointed run diverged from plain run:\nref %+v\ngot %+v", ref, got)
			}
			// 4 cores × 30k = 120k accesses, boundary every 10k: expect many
			// snapshots, some inside the warmup window.
			if len(snaps) < 5 {
				t.Fatalf("only %d checkpoints taken", len(snaps))
			}

			for _, s := range snaps {
				srcs, _ = MixSources(mix, accesses, seed)
				res, err := RunCheckpointed(cfg, mk(), srcs, s.payload, nil)
				if err != nil {
					t.Fatalf("resume from interval %d: %v", s.interval, err)
				}
				if !reflect.DeepEqual(ref, res) {
					t.Fatalf("resume from interval %d diverged:\nref %+v\ngot %+v", s.interval, ref, res)
				}
			}
		})
	}
}

// TestCheckpointResumeRejectsMismatch pins the typed degradation path:
// a payload from another controller or geometry must error (the caller
// then runs cold), never apply silently.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	mix := workload.TableIII()[0]
	cfg := ckTestConfig()
	var payload []byte
	srcs, _ := MixSources(mix, 15_000, 1)
	if _, err := RunCheckpointed(cfg, core.NewLAP(), srcs, nil, func(_, _ uint64, p []byte) {
		payload = append(payload[:0], p...)
	}); err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatal("no checkpoint captured")
	}

	srcs, _ = MixSources(mix, 15_000, 1)
	if _, err := RunCheckpointed(cfg, core.NewExclusive(), srcs, payload, nil); err == nil {
		t.Fatal("restoring a LAP checkpoint into an exclusive machine did not error")
	}
	small := cfg
	small.L3SizeBytes = cfg.L3SizeBytes / 2
	srcs, _ = MixSources(mix, 15_000, 1)
	if _, err := RunCheckpointed(small, core.NewLAP(), srcs, payload, nil); err == nil {
		t.Fatal("restoring across LLC geometries did not error")
	}
	srcs, _ = MixSources(mix, 15_000, 1)
	if _, err := RunCheckpointed(cfg, core.NewLAP(), srcs, payload[:len(payload)/2], nil); err == nil {
		t.Fatal("truncated payload did not error")
	}
	// Version 1 payloads carried an MSHR section that version 2 dropped.
	v1 := append([]byte{1}, payload[1:]...)
	srcs, _ = MixSources(mix, 15_000, 1)
	if _, err := RunCheckpointed(cfg, core.NewLAP(), srcs, v1, nil); err == nil ||
		err.Error() != "sim: checkpoint payload version 1, want 2" {
		t.Fatalf("version-1 payload: error = %v, want the version error", err)
	}
}

// TestCheckpointIneligibleConfigsRunCold verifies the silent-cold-start
// contract: configurations whose state the codec does not cover take no
// snapshots but still produce correct results.
func TestCheckpointIneligibleConfigsRunCold(t *testing.T) {
	mix := workload.TableIII()[0]
	cfg := ckTestConfig()
	cfg.Profile = true
	calls := 0
	srcs, _ := MixSources(mix, 15_000, 1)
	res, err := RunCheckpointed(cfg, core.NewLAP(), srcs, nil, func(_, _ uint64, _ []byte) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("profiled run took %d checkpoints; profiler state is not serialized", calls)
	}
	if res.Cycles == 0 {
		t.Fatal("ineligible run produced no result")
	}
}
