package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The access loop must not allocate: every per-access allocation turns
// into GC pressure multiplied by the hundreds of millions of accesses a
// figure sweep simulates. These tests pin allocs/access at exactly zero
// for every inclusion controller on the fast path.
// BenchmarkAccessAllocs is additionally parsed by the CI gate (`make ci`
// greps its allocs/op), so renaming it requires updating the Makefile.

// allocMachine builds a machine and fully warms its structures: the
// steady state matters, not cold-start fills of lazily-grown maps.
func allocMachine(ctrl core.Controller, b workload.Benchmark, hybrid bool) (*machine, *coreState, []trace.Access) {
	cfg := smallCfg()
	if hybrid {
		cfg = cfg.WithHybridL3()
	}
	m := build(cfg, ctrl, sourcesFor(b, cfg.Cores, 40000))
	m.loop()
	c := m.cores[0]
	c.done = false
	accs := make([]trace.Access, 4096)
	if n := trace.FillBatch(workload.New(b, 99), accs); n != len(accs) {
		panic("workload source ended early")
	}
	return m, c, accs
}

// allocReplayMachine is allocMachine for the replay path: a machine
// warmed by replaying 40000 recorded accesses per core, whose core 0
// stands at an access that issues LLC operations with more than steps
// such accesses left in its recording.
func allocReplayMachine(ctrl core.Controller, b workload.Benchmark, hybrid bool, steps int) (*machine, *coreState) {
	cfg := smallCfg()
	if hybrid {
		cfg = cfg.WithHybridL3()
	}
	const warmed = 40000
	recs := make([]*Recording, cfg.Cores)
	for extra := uint64(4 * steps); ; extra *= 2 {
		n := warmed + extra
		for i, src := range sourcesFor(b, cfg.Cores, n) {
			var err error
			key := CoreKey{Priv: cfg.PrivateKey(), Bench: b.Name, Pos: i, Accesses: n}
			if recs[i], err = record(cfg, key, src); err != nil {
				panic(err)
			}
		}
		if llcAccesses(recs[0].acc[warmed:]) > steps {
			break
		}
	}
	warm := cfg
	warm.MaxAccessesPerCore = warmed
	m := newReplayMachine(warm, ctrl, recs)
	m.replayLoop()
	c := m.cores[0]
	c.rp.acc, c.done = recs[0].acc, false
	m.runAhead(c)
	return m, c
}

// llcAccesses counts the recorded accesses that issue LLC operations.
func llcAccesses(acc []uint32) int {
	n := 0
	for _, a := range acc {
		if a>>accOpsShift != 0 {
			n++
		}
	}
	return n
}

func allocControllers() map[string]func() core.Controller {
	return map[string]func() core.Controller{
		"NonInclusive":  func() core.Controller { return core.NewNonInclusive() },
		"Exclusive":     func() core.Controller { return core.NewExclusive() },
		"FLEXclusion":   func() core.Controller { return core.NewFLEXclusion() },
		"LAP":           func() core.Controller { return core.NewLAP() },
		"Lhybrid":       func() core.Controller { return core.NewLhybrid() },
		"ReuseDetector": func() core.Controller { return core.NewReuseDetector() },
		"RDCopyback":    func() core.Controller { return core.NewRDCopyback() },
	}
}

// TestAccessAllocsZero fails if any controller's steady-state access
// path allocates at all, on the direct walk or on the replay.
func TestAccessAllocsZero(t *testing.T) {
	for name, mk := range allocControllers() {
		t.Run(name, func(t *testing.T) {
			m, c, accs := allocMachine(mk(), loopy(), name == "Lhybrid")
			i := 0
			got := testing.AllocsPerRun(2000, func() {
				m.step(c, accs[i%len(accs)])
				i++
			})
			if got != 0 {
				t.Fatalf("%s access path allocates %.2f times per access, want 0", name, got)
			}
		})
		t.Run(name+"/replay", func(t *testing.T) {
			m, c := allocReplayMachine(mk(), loopy(), name == "Lhybrid", 2001)
			got := testing.AllocsPerRun(2000, func() {
				if c.done {
					t.Fatal("recording ended early")
				}
				m.replayStep(c)
			})
			if got != 0 {
				t.Fatalf("%s replayed access allocates %.2f times per access, want 0", name, got)
			}
		})
	}
}

// TestAccessAllocsZeroFunctional pins the functional-warmup access path
// (Ctx.Functional set, stepFunctional) at zero allocations too: sampled
// runs spend most of their accesses there, so a per-access allocation
// would erase the sampling speedup.
func TestAccessAllocsZeroFunctional(t *testing.T) {
	for name, mk := range allocControllers() {
		t.Run(name, func(t *testing.T) {
			m, c, accs := allocMachine(mk(), loopy(), name == "Lhybrid")
			m.ctx.Functional = true
			defer func() { m.ctx.Functional = false }()
			i := 0
			got := testing.AllocsPerRun(2000, func() {
				m.stepFunctional(c, accs[i%len(accs)])
				i++
			})
			if got != 0 {
				t.Fatalf("%s functional access path allocates %.2f times per access, want 0", name, got)
			}
		})
	}
}

// BenchmarkAccessAllocs reports ns/op and allocs/op for a single
// steady-state access on the LAP controller. CI requires its allocs/op
// to be exactly 0.
func BenchmarkAccessAllocs(b *testing.B) {
	m, c, accs := allocMachine(core.NewLAP(), loopy(), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(c, accs[i%len(accs)])
	}
}

// BenchmarkAccessAllocsReplay reports ns/op and allocs/op for one
// steady-state replay step (an access that issues LLC operations, then
// the private-only accesses up to the next one) under every
// allocControllers controller. The sub-benchmark names keep the prefix
// the CI alloc gate greps, so their allocs/op must be exactly 0 too.
func BenchmarkAccessAllocsReplay(b *testing.B) {
	for name, mk := range allocControllers() {
		b.Run(name, func(b *testing.B) {
			m, c := allocReplayMachine(mk(), loopy(), name == "Lhybrid", b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.replayStep(c)
			}
		})
	}
}

// BenchmarkAccessAllocsFunctional is the functional-mode counterpart;
// the CI alloc gate requires its allocs/op to be exactly 0 as well.
func BenchmarkAccessAllocsFunctional(b *testing.B) {
	m, c, accs := allocMachine(core.NewLAP(), loopy(), false)
	m.ctx.Functional = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.stepFunctional(c, accs[i%len(accs)])
	}
}

// BenchmarkAccessAllocsCompetitors pins the predictor-table competitor
// policies (reuse-detector, rd-copyback) in the same CI alloc gate: the
// sub-benchmark names keep the BenchmarkAccessAllocs prefix the gate
// greps, so their allocs/op must also be exactly 0.
func BenchmarkAccessAllocsCompetitors(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() core.Controller
	}{
		{"ReuseDetector", func() core.Controller { return core.NewReuseDetector() }},
		{"RDCopyback", func() core.Controller { return core.NewRDCopyback() }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, c, accs := allocMachine(tc.mk(), loopy(), false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.step(c, accs[i%len(accs)])
			}
		})
	}
}
