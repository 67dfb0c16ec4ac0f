package sim

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

// fuzzBytes hands out fuzz input bytes, zeros once they run out.
type fuzzBytes struct {
	data []byte
	off  int
}

func (f *fuzzBytes) intn(n int) int {
	if f.off >= len(f.data) {
		return 0
	}
	f.off++
	return int(f.data[f.off-1]) % n
}

// pick returns one of vals.
func pick[T any](f *fuzzBytes, vals ...T) T { return vals[f.intn(len(vals))] }

// fuzzMachine draws a machine within Validate's bounds from f: 1-4
// cores; L1, L2 and LLC of 1-24 ways, so that both the packed and the
// byte-order recency paths run; a hybrid LLC or not; LRU or RRIP;
// prefetch 0-2; the DRAM model or fixed memory latency; an access bound
// or not. Latencies and the CPI come from small sets of round values,
// so that core clocks often tie. A store stall fraction above one,
// which Validate admits, makes a store's stall large against the clock
// early in a run, where one ulp of it still shows in the clock.
func fuzzMachine(f *fuzzBytes) Config {
	cfg := DefaultConfig()
	cfg.Cores = 1 + f.intn(4)
	ways := func() int { return 1 + f.intn(24) }
	sets := func(max int) int { return 1 << f.intn(max+1) }
	cfg.L1Ways = ways()
	cfg.L1SizeBytes = sets(4) * cfg.L1Ways * cfg.BlockBytes
	cfg.L2Ways = ways()
	cfg.L2SizeBytes = sets(6) * cfg.L2Ways * cfg.BlockBytes
	cfg.L3Ways = ways()
	cfg.L3SizeBytes = sets(8) * cfg.L3Ways * cfg.BlockBytes
	if f.intn(2) == 1 {
		cfg.L3SRAMWays = 1 + f.intn(cfg.L3Ways)
		if cfg.L3SRAMWays == cfg.L3Ways {
			cfg.L3SRAMWays = 0
		}
	}
	cfg.L3Replacement = pick(f, cache.ReplLRU, cache.ReplRRIP)
	cfg.L3Banks = pick(f, 1, 2, 4)
	cfg.PrefetchDegree = f.intn(3)
	cfg.UseDRAM = f.intn(3) == 0
	cfg.BaseCPI = pick[float64](f, 0.25, 0.5, 1, 2, 1.0/1024)
	cfg.MLP = pick[float64](f, 1, 2, 3, 4)
	cfg.StoreStallFrac = pick[float64](f, 0, 0.3, 0.5, 1, 1<<20)
	cfg.L1Cycles = pick[uint64](f, 1, 2, 4)
	cfg.L2Cycles = pick[uint64](f, 0, 2, 4, 8)
	cfg.L3ReadCycles = pick[uint64](f, 0, 4, 8)
	cfg.L3WriteCycles = pick[uint64](f, 4, 8, 33)
	cfg.SRAMReadCycles, cfg.SRAMWriteCycles = cfg.L3ReadCycles, cfg.L3ReadCycles
	cfg.STTReadCycles, cfg.STTWriteCycles = cfg.L3ReadCycles, cfg.L3WriteCycles
	cfg.MemCycles = pick[uint64](f, 0, 16, 160)
	cfg.BankOccupancyFrac = pick[float64](f, 0.25, 1)
	return cfg
}

// FuzzReplayDifferential holds replay to the direct walk on random
// machines, policies and mixes: a Replay of RecordCore recordings must
// be deep-equal to RunMix (replayDiff).
//
// A clock absorbs a one-ulp error in a stall once it is a few times
// larger than the stall, so only runs whose clocks are still small when
// such a stall is added can show it. The committed corpus
// (testdata/fuzz/FuzzReplayDifferential) holds short runs of that kind.
func FuzzReplayDifferential(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{3, 3, 3, 15, 6, 15, 8, 1, 2, 1, 2, 1, 0, 1, 1, 2, 2, 1, 2, 1, 0, 0, 0, 9, 40, 1, 2, 3},
		{1, 23, 4, 16, 6, 23, 8, 1, 5, 0, 1, 2, 3, 0, 0, 1, 1, 3, 1, 2, 1, 1, 1, 200, 10, 4},
		{3, 7, 2, 7, 5, 20, 7, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 31, 17, 9, 9},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { replayDiff(t, data) })
}

// replayDiff draws a machine (fuzzMachine), a registered policy the
// machine can run, with or without the dead-write-bypass wrapper, and a
// mix of random benchmarks of 20-3000 accesses per core from data, and
// requires Replay to equal RunMix. Runs Replayable refuses (inclusive
// back-invalidates) are skipped.
func replayDiff(t *testing.T, data []byte) {
	fb := &fuzzBytes{data: data}
	cfg := fuzzMachine(fb)
	names := core.PolicyNames()
	name := names[fb.intn(len(names))]
	if fb.intn(2) == 1 {
		name += "+DWB"
	}
	duel := pick[uint64](fb, 500, 2000, 20000)
	accesses := uint64(20 + 20*fb.intn(150))
	seed := uint64(fb.intn(256))
	if fb.intn(3) == 0 {
		cfg.MaxAccessesPerCore = accesses / 2
	}
	benches := append(workload.SPEC(), workload.PARSEC()...)
	mix := workload.Mix{Name: "fuzz"}
	for i := 0; i < cfg.Cores; i++ {
		mix.Members = append(mix.Members, benches[fb.intn(len(benches))].Name)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("drawn machine is invalid: %v", err)
	}
	if _, err := cfg.ValidatePolicy(name); err != nil {
		return
	}
	mk := func() core.Controller {
		c, err := core.NewPolicy(name, cfg.PolicyParams(duel))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if !Replayable(cfg, mk()) {
		return
	}
	want, err := RunMix(cfg, mk, mix, accesses, seed)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := recordMix(cfg, mix, accesses, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(cfg, mk(), mix, accesses, seed, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s on %+v, mix %v: replay differs from the direct walk: %s",
			name, cfg, mix.Members, resultDiff(want, got))
	}
}
