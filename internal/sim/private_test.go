package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

// privateState is what one core's private levels hold at the end of a
// run: every L1 and L2 word (the L2 loop bit masked, since it is the one
// bit a controller sets), each line's recency rank, and the counters the
// private walk produces.
type privateState struct {
	L1, L2           []uint64
	L1Rank, L2Rank   []uint64
	L1Acc, L1Miss    uint64
	L2Acc, L2Miss    uint64
	L2Clean, L2Dirty uint64
	Prefetches       uint64
}

func capturePrivate(m *machine) []privateState {
	words := func(c *cache.Cache, maskLoop bool) (w, rank []uint64) {
		for s := 0; s < c.NumSets(); s++ {
			for way := 0; way < c.Ways(); way++ {
				meta := *c.Meta(s, way)
				if maskLoop {
					meta.SetLoop(false)
				}
				w = append(w, uint64(meta))
				rank = append(rank, c.Stamp(s, way))
			}
		}
		return w, rank
	}
	out := make([]privateState, len(m.cores))
	for i, c := range m.cores {
		ps := &out[i]
		ps.L1, ps.L1Rank = words(c.l1, false)
		ps.L2, ps.L2Rank = words(c.l2, true)
	}
	// The shared Metrics hold the sum over cores; per-core counters are
	// not kept, so the totals stand for every core.
	met := m.ctx.Met
	out[0].L1Acc, out[0].L1Miss = met.L1Accesses, met.L1Misses
	out[0].L2Acc, out[0].L2Miss = met.L2Accesses, met.L2Misses
	out[0].L2Clean, out[0].L2Dirty = met.L2CleanEvictions, met.L2DirtyEvictions
	out[0].Prefetches = met.Prefetches
	return out
}

// shrunkConfig is the Table II machine with every cache shrunk (8 KB
// L1s, 64 KB L2s, a 512 KB LLC), so that runs of a few thousand
// accesses per core already evict from every level: an L2 that never
// evicts would hide a wrong victim or loop bit.
func shrunkConfig() Config {
	cfg := DefaultConfig()
	cfg.L1SizeBytes, cfg.L2SizeBytes, cfg.L3SizeBytes = 8<<10, 64<<10, 512<<10
	return cfg
}

// privateConfigs are the machines the cross-policy property is checked
// on: an STT-RAM LLC, the hybrid LLC (which adds Lhybrid), and a
// next-2-line prefetcher (which adds prefetch fills and their victims).
func privateConfigs() map[string]Config {
	stt := shrunkConfig()
	pf := stt
	pf.PrefetchDegree = 2
	return map[string]Config{"stt": stt, "hybrid": stt.WithHybridL3(), "prefetch2": pf}
}

// crossPolicies lists every registered policy the configuration can run,
// plus two dead-write-bypass wrappers.
func crossPolicies(cfg Config) []string {
	var names []string
	for _, info := range core.Policies() {
		if info.NeedsHybridLLC && !cfg.hybrid() {
			continue
		}
		names = append(names, info.Name)
	}
	return append(names, "exclusive+DWB", "LAP+DWB")
}

// TestPrivateLevelsPolicyIndependent checks the property the replay
// path rests on: on a non-coherent mix, each core's L1/L2 history
// depends only on its own access stream. Every policy except inclusive
// leaves identical private state; inclusive back-invalidates into the
// L1/L2 and must differ, which proves the comparison can fail.
func TestPrivateLevelsPolicyIndependent(t *testing.T) {
	const accesses = 8_000
	mixes := workload.TableIII()
	mixes = matrixMixes([]workload.Mix{mixes[0], mixes[1], mixes[5], mixes[8]})
	for cname, cfg := range privateConfigs() {
		for _, mix := range mixes {
			t.Run(cname+"/"+mix.Name, func(t *testing.T) {
				runPolicy := func(name string) []privateState {
					ctrl, err := core.NewPolicy(name, cfg.PolicyParams(40_000))
					if err != nil {
						t.Fatal(err)
					}
					srcs, err := MixSources(mix, accesses, 2016)
					if err != nil {
						t.Fatal(err)
					}
					m := build(cfg, ctrl, srcs)
					m.loop()
					return capturePrivate(m)
				}
				ref := runPolicy("non-inclusive")
				for _, name := range crossPolicies(cfg) {
					if name == "non-inclusive" || name == "inclusive" {
						continue
					}
					if got := runPolicy(name); !reflect.DeepEqual(got, ref) {
						t.Errorf("%s: private state differs from non-inclusive: %s", name, firstPrivateDiff(ref, got))
					}
				}
				if reflect.DeepEqual(runPolicy("inclusive"), ref) {
					t.Error("inclusive left the same private state as non-inclusive; its back-invalidations should show")
				}
			})
		}
	}
}

// firstPrivateDiff names the first field where two captures differ.
func firstPrivateDiff(a, b []privateState) string {
	for i := range a {
		va, vb := reflect.ValueOf(a[i]), reflect.ValueOf(b[i])
		for f := 0; f < va.NumField(); f++ {
			if !reflect.DeepEqual(va.Field(f).Interface(), vb.Field(f).Interface()) {
				return fmt.Sprintf("core %d field %s", i, va.Type().Field(f).Name)
			}
		}
	}
	return "no field"
}
