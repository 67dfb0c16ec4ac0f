package sim

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// replayScale returns the per-core length, the base machine and the
// duel period of the replay matrix. The test scale runs the shrunk
// caches with a short duel window, so that short runs evict from every
// level and dueling policies re-elect; LAP_REPLAY_SCALE=quick runs the
// Quick experiment length on the Table II machine instead.
func replayScale() (accesses uint64, base Config, duel uint64) {
	if os.Getenv("LAP_REPLAY_SCALE") == "quick" {
		return 120_000, DefaultConfig(), 100_000
	}
	return 8_000, shrunkConfig(), 20_000
}

// replayConfigs are the machines of the replay matrix: an STT-RAM LLC,
// the hybrid LLC, a prefetcher, an MSHR table, the DRAM model, and a
// warmup window with a length bound.
func replayConfigs(stt Config, accesses uint64) map[string]Config {
	pf, mshr, dram, bounded := stt, stt, stt, stt
	pf.PrefetchDegree = 2
	mshr.MSHREntries = 8
	dram.UseDRAM = true
	bounded.WarmupAccessesPerCore = accesses / 4
	bounded.MaxAccessesPerCore = accesses / 2
	return map[string]Config{
		"stt": stt, "hybrid": stt.WithHybridL3(), "prefetch2": pf,
		"mshr": mshr, "dram": dram, "bounded": bounded,
	}
}

// replayControllers returns every controller the replay must reproduce
// under cfg: each replay-eligible registered policy, two dead-write
// bypass wrappers and, on a hybrid LLC, the Fig. 25 stage controllers.
func replayControllers(t testing.TB, cfg Config, duel uint64) map[string]func() core.Controller {
	out := map[string]func() core.Controller{}
	for _, name := range crossPolicies(cfg) {
		probe, err := core.NewPolicy(name, cfg.PolicyParams(duel))
		if err != nil {
			t.Fatal(err)
		}
		if !Replayable(cfg, probe) {
			continue
		}
		out[name] = func() core.Controller {
			c, _ := core.NewPolicy(name, cfg.PolicyParams(duel))
			return c
		}
	}
	if cfg.hybrid() {
		for _, st := range [][3]bool{{true, false, false}, {false, true, false}, {false, false, true}} {
			probe := core.NewHybridStage(st[0], st[1], st[2])
			out["stage:"+probe.Name()] = func() core.Controller {
				c := core.NewHybridStage(st[0], st[1], st[2])
				c.Duel().PeriodCycles = duel
				return c
			}
		}
	}
	return out
}

// TestReplayMatchesDirect is the replay's contract: for every eligible
// controller, Table III mix and machine of the matrix, replaying a
// recording gives a Result deep-equal to the direct walk's.
func TestReplayMatchesDirect(t *testing.T) {
	accesses, base, duel := replayScale()
	cfgs := replayConfigs(base, accesses)
	names := make([]string, 0, len(cfgs))
	for n := range cfgs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, cname := range names {
		cfg := cfgs[cname]
		ctrls := replayControllers(t, cfg, duel)
		for _, mix := range matrixMixes(workload.TableIII()) {
			t.Run(cname+"/"+mix.Name, func(t *testing.T) {
				t.Parallel()
				st, err := RecordMix(cfg, mix, accesses, 2016)
				if err != nil {
					t.Fatal(err)
				}
				for pname, mk := range ctrls {
					want, err := RunMix(cfg, mk, mix, accesses, 2016)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Replay(cfg, mk(), st)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: replay differs from the direct walk: %s", pname, resultDiff(want, got))
					}
				}
			})
		}
	}
}

// matrixMixes is mixes, cut to the first and the last (a WL and a WH
// mix) under the race detector.
func matrixMixes(mixes []workload.Mix) []workload.Mix {
	if raceEnabled {
		return []workload.Mix{mixes[0], mixes[len(mixes)-1]}
	}
	return mixes
}

// resultDiff names the Result fields (and Metrics counters) that
// differ.
func resultDiff(a, b Result) string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if reflect.DeepEqual(fa, fb) {
			continue
		}
		if name == "Met" {
			ma, mb := reflect.ValueOf(a.Met), reflect.ValueOf(b.Met)
			for j := 0; j < ma.NumField(); j++ {
				if !reflect.DeepEqual(ma.Field(j).Interface(), mb.Field(j).Interface()) {
					out = append(out, fmt.Sprintf("Met.%s %v != %v", ma.Type().Field(j).Name, ma.Field(j), mb.Field(j)))
				}
			}
			continue
		}
		out = append(out, name)
	}
	return fmt.Sprint(out)
}

// TestReplayRefusesIneligible checks that runs the recording cannot
// represent are refused, not silently replayed.
func TestReplayRefusesIneligible(t *testing.T) {
	cfg := smallCfg()
	st, err := record(cfg, sourcesFor(loopy(), cfg.Cores, 2000), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(cfg, core.NewInclusive(), st); err == nil {
		t.Error("inclusive replayed; its back-invalidations write the private levels")
	}
	if _, err := Replay(cfg, core.NewDeadWriteBypass(core.NewInclusive()), st); err == nil {
		t.Error("inclusive+DWB replayed; its back-invalidations write the private levels")
	}
	coherent := cfg
	coherent.Coherent = true
	if _, err := Replay(coherent, core.NewLAP(), st); err == nil {
		t.Error("a coherent run replayed")
	}
	if _, err := record(coherent, sourcesFor(loopy(), cfg.Cores, 2000), 2000); err == nil {
		t.Error("a coherent run recorded")
	}
	other := cfg
	other.L2SizeBytes *= 2
	if _, err := Replay(other, core.NewLAP(), st); err == nil {
		t.Error("streams replayed on a machine with another L2")
	}
	llc := cfg.WithHybridL3()
	llc.L3SizeBytes *= 2
	if _, err := Replay(llc, core.NewLAP(), st); err != nil {
		t.Errorf("an LLC-only variant refused the streams: %v", err)
	}
}
