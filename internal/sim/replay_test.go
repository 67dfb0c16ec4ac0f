package sim

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cache"
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
// per-core length bound. Warmup windows are not replayable.
func replayConfigs(stt Config, accesses uint64) map[string]Config {
	pf, mshr, dram, bounded := stt, stt, stt, stt
	pf.PrefetchDegree = 2
	mshr.MSHREntries = 8
	dram.UseDRAM = true
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
// controller, Table III mix and machine of the matrix, replaying the
// mix's per-core recordings gives a Result deep-equal to the direct
// walk's. Each core is recorded once and shared by every machine with
// its private geometry; the cross mixes are assembled entirely from
// recordings made for other mixes.
func TestReplayMatchesDirect(t *testing.T) {
	accesses, base, duel := replayScale()
	cfgs := replayConfigs(base, accesses)
	names := make([]string, 0, len(cfgs))
	for n := range cfgs {
		names = append(names, n)
	}
	sort.Strings(names)
	mixes := matrixMixes(workload.TableIII())
	recs := map[CoreKey]*Recording{}
	for _, cname := range names {
		cfg := cfgs[cname]
		for _, mix := range mixes {
			keys, err := cfg.CoreKeys(mix, accesses, 2016)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if recs[k] == nil {
					if recs[k], err = RecordCore(cfg, k); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, cname := range names {
		cfg := cfgs[cname]
		ctrls := replayControllers(t, cfg, duel)
		for _, mix := range append(mixes, crossMix(mixes)) {
			t.Run(cname+"/"+mix.Name, func(t *testing.T) {
				t.Parallel()
				keys, err := cfg.CoreKeys(mix, accesses, 2016)
				if err != nil {
					t.Fatal(err)
				}
				st := make([]*Recording, len(keys))
				for i, k := range keys {
					if st[i] = recs[k]; st[i] == nil {
						t.Fatalf("no mix recorded core %d (%s)", i, k.Bench)
					}
				}
				for pname, mk := range ctrls {
					want, err := RunMix(cfg, mk, mix, accesses, 2016)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Replay(cfg, mk(), mix, accesses, 2016, st)
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

// recordMix records every core of mix on cfg.
func recordMix(cfg Config, mix workload.Mix, accesses, seed uint64) ([]*Recording, error) {
	keys, err := cfg.CoreKeys(mix, accesses, seed)
	if err != nil {
		return nil, err
	}
	recs := make([]*Recording, len(keys))
	for i, k := range keys {
		if recs[i], err = RecordCore(cfg, k); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// orderCtrl logs the blocks it is asked to fetch, in call order.
type orderCtrl struct{ fetched []uint64 }

func (o *orderCtrl) Name() string { return "order" }
func (o *orderCtrl) Fetch(_ *core.Ctx, block uint64) core.FetchResult {
	o.fetched = append(o.fetched, block)
	return core.FetchResult{}
}
func (o *orderCtrl) EvictL2(*core.Ctx, cache.Line) {}

// TestReplayOrdersTiesByIndex pins the serial loop's tie rule in the
// middle of a replay. Two cores fetch one block per access: core 0
// issues its first access at clock 4 and waits at clock 5 for its
// second; core 1, which leads, then reaches clock 5 too. On that tie
// the serial loop takes core 0 first, so core 1 must yield although
// nothing issued at a lower clock.
func TestReplayOrdersTiesByIndex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores, cfg.BaseCPI, cfg.MLP, cfg.L1Cycles, cfg.L2Cycles = 2, 1, 4, 2, 4
	recording := func(instrs []uint32, blocks ...uint64) *Recording {
		r := &Recording{}
		for i, b := range blocks {
			r.acc = append(r.acc, instrs[i]|2<<accLevelShift|1<<accOpsShift)
			r.ops = append(r.ops, b)
			r.fetches++
		}
		return r
	}
	ctrl := &orderCtrl{}
	replay(cfg, ctrl, []*Recording{
		recording([]uint32{4, 1}, 10, 11),
		recording([]uint32{4, 1}, 20, 21),
	})
	if want := []uint64{10, 20, 11, 21}; !reflect.DeepEqual(ctrl.fetched, want) {
		t.Errorf("fetch order %v, want %v", ctrl.fetched, want)
	}
}

// crossMix returns a mix whose core at position p is the one at
// position p of mixes[(p+1) % len(mixes)].
func crossMix(mixes []workload.Mix) workload.Mix {
	x := workload.Mix{Name: "cross"}
	for p := range mixes[0].Members {
		x.Members = append(x.Members, mixes[(p+1)%len(mixes)].Members[p])
	}
	return x
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

// TestReplayRefusesIneligible checks that runs the recordings cannot
// represent are refused, not silently replayed, and so are recordings
// of other cores.
func TestReplayRefusesIneligible(t *testing.T) {
	cfg := smallCfg()
	mix := workload.Mix{Name: "pair", Members: []string{"zeusmp", "mcf"}}
	const n, seed = 2000, 1
	recs, err := recordMix(cfg, mix, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(cfg Config, ctrl core.Controller, mix workload.Mix, seed uint64, recs []*Recording) error {
		_, err := Replay(cfg, ctrl, mix, n, seed, recs)
		return err
	}
	if replay(cfg, core.NewInclusive(), mix, seed, recs) == nil {
		t.Error("inclusive replayed; its back-invalidations write the private levels")
	}
	if replay(cfg, core.NewDeadWriteBypass(core.NewInclusive()), mix, seed, recs) == nil {
		t.Error("inclusive+DWB replayed; its back-invalidations write the private levels")
	}
	coherent := cfg
	coherent.Coherent = true
	if replay(coherent, core.NewLAP(), mix, seed, recs) == nil {
		t.Error("a coherent run replayed")
	}
	if _, err := recordMix(coherent, mix, n, seed); err == nil {
		t.Error("a coherent run recorded")
	}
	warm := cfg
	warm.WarmupAccessesPerCore = n / 4
	if replay(warm, core.NewLAP(), mix, seed, recs) == nil {
		t.Error("a warmup-bounded run replayed; its baseline is a point of the global order")
	}
	falling := cfg
	falling.StoreStallFrac = -0.5
	if replay(falling, core.NewLAP(), mix, seed, recs) == nil {
		t.Error("a run whose clocks can fall replayed")
	}
	other := cfg
	other.L2SizeBytes *= 2
	if replay(other, core.NewLAP(), mix, seed, recs) == nil {
		t.Error("recordings replayed on a machine with another L2")
	}
	swapped := workload.Mix{Name: "swapped", Members: []string{"mcf", "zeusmp"}}
	if replay(cfg, core.NewLAP(), swapped, seed, recs) == nil {
		t.Error("recordings replayed for another mix")
	}
	if replay(cfg, core.NewLAP(), mix, seed, []*Recording{recs[1], recs[0]}) == nil {
		t.Error("recordings replayed at other positions")
	}
	if replay(cfg, core.NewLAP(), mix, seed+1, recs) == nil {
		t.Error("recordings replayed for another seed")
	}
	llc := cfg.WithHybridL3()
	llc.L3SizeBytes *= 2
	if err := replay(llc, core.NewLAP(), mix, seed, recs); err != nil {
		t.Errorf("an LLC-only variant refused the recordings: %v", err)
	}
	bounded := cfg
	bounded.MaxAccessesPerCore = n / 2
	if err := replay(bounded, core.NewLAP(), mix, seed, recs); err != nil {
		t.Errorf("a length-bounded run refused the recordings: %v", err)
	}
}
