package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	lap "repro"
	"repro/internal/experiments"
	otrace "repro/internal/obs/trace"
)

// fig14-quick: the ROADMAP's headline artifact. Fig. 14 at the Quick
// scale is 98 runs over 5 policies and 18 mixes, fanned out through the
// experiments scheduler and memo with one worker per CPU. Each iteration
// regenerates it exact, then sampled at the recommended point (interval
// 1000, automatic clusters, warmup 1) — the only place the sample layer
// runs, at several times the exact phase's allocation and peak RSS. The
// memo is reset before each phase, so every phase computes all its runs.
// The traced pass then probes the sample layer, the simulation layers on
// the Table III mixes, and the lapsim pair (pair.go).

// fig14IterSeconds is about the time of one exact-then-sampled
// iteration on the 2-vCPU reference host. A pass runs one iteration per
// started fig14IterSeconds of its duration: 4 at 50 s, 2 in each half of
// a traced 50 s run. The count depends on the duration alone, never on
// the host's speed, so a slower host takes longer instead of taking
// fewer samples.
const fig14IterSeconds = 14

func fig14Iterations(seconds float64) int { return int(math.Ceil(seconds / fig14IterSeconds)) }

// fig14Opts returns the options of one phase.
func fig14Opts(p *pass, sampled bool, tr *lap.Tracer) experiments.Options {
	opt := experiments.Quick()
	opt.Seed = p.seed
	opt.Accesses = p.length(opt.Accesses)
	opt.Jobs = runtime.NumCPU()
	opt.Trace = tr
	if sampled {
		opt.SampleInterval = 1000
		opt.SampleWarmup = 1
	}
	return opt
}

// regenerate builds the Fig. 14 table. Generators panic on a failed run
// (cmd/lapexp contains them per artifact); here that is one failed
// operation.
func regenerate(opt experiments.Options) (tab *experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fig14: %v", r)
		}
	}()
	return experiments.Registry(opt)["fig14"](), nil
}

// tableText is the table exactly as lapexp prints it.
func tableText(t *experiments.Table) string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// fig14Rows is the table's row count: three metric rows per Table III
// mix plus three average rows.
var fig14Rows = 3*len(lap.TableIII()) + 3

func measureFig14(p *pass) error {
	// Set-up: build the registry and regenerate Fig. 14 at a thirtieth
	// of the Quick length, warming the scheduler, memo and heap.
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t := time.Now()
		experiments.ResetMemo()
		warm := fig14Opts(p, false, nil)
		warm.Accesses /= 30
		tab, err := regenerate(warm)
		if err != nil {
			return err
		}
		if len(tab.Rows) != fig14Rows {
			return fmt.Errorf("warm-up Fig. 14 has %d rows, want %d", len(tab.Rows), fig14Rows)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	ctx, root := p.tr.Root(context.Background(), "fig14-quick")
	var exact, sampled, tput []float64
	var ph [2]phaseStats
	for iter := fig14Iterations(p.seconds); iter > 0; iter-- {
		for k, isSampled := range []bool{false, true} {
			name := "exact"
			if isSampled {
				name = "sampled"
			}
			d, st, err := fig14Phase(ctx, p, name, isSampled)
			p.op(err)
			ph[k].merge(st)
			if isSampled {
				sampled = append(sampled, ms(d))
				continue
			}
			exact = append(exact, ms(d))
			opt := fig14Opts(p, false, nil)
			acc := float64(st.computed) * float64(opt.Accesses) * float64(lap.DefaultConfig().Cores)
			tput = append(tput, acc/d.Seconds()/1e6)
		}
	}
	root.End()
	p.reportEndToEnd(setups, exact, sampled, tput,
		"one exact Fig. 14 regeneration", "one sampled Fig. 14 regeneration",
		"exact-phase simulated accesses per host second")
	p.note("%-26s %14.6g %-10s n=%d", "fig14_exact_s", quantile(exact, 0.5)/1e3, "s", len(exact))
	p.note("%-26s %14.6g %-10s n=%d", "fig14_sampled_s", quantile(sampled, 0.5)/1e3, "s", len(sampled))
	if !p.traced {
		return nil
	}
	ph[0].report(p, "exact")
	ph[1].report(p, "sampled")
	p.layer("experiments.cell_p50_ms", quantile(ph[0].cellMs, 0.5), "ms")
	p.layer("experiments.cell_max_ms", quantile(ph[0].cellMs, 1), "ms")
	p.layer("experiments.alloc_mb", ph[0].allocMB/float64(ph[0].n), "MB")
	p.layer("sample.alloc_mb", ph[1].allocMB/float64(ph[1].n), "MB")
	_, sp := otrace.Start(ctx, "probe.sample")
	err := sampleProbe(p)
	sp.End()
	if err != nil {
		return err
	}
	_, sp = otrace.Start(ctx, "probe.sim")
	err = simProbe(p)
	sp.End()
	if err != nil {
		return err
	}
	_, sp = otrace.Start(ctx, "probe.pair")
	defer sp.End()
	return pairProbe(p)
}

// phaseStats is what one or more phases of one kind recorded.
type phaseStats struct {
	n                  int
	computed, recalled uint64
	busy               float64 // summed busy fractions
	cellMs             []float64
	allocMB            float64
}

func (a *phaseStats) merge(b phaseStats) {
	a.n += b.n
	a.computed += b.computed
	a.recalled += b.recalled
	a.busy += b.busy
	a.cellMs = append(a.cellMs, b.cellMs...)
	a.allocMB += b.allocMB
}

func (a *phaseStats) report(p *pass, phase string) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	p.layer("experiments.runs_computed."+phase, float64(a.computed)/n, "count")
	p.layer("experiments.runs_recalled."+phase, float64(a.recalled)/n, "count")
	p.layer("experiments.busy_frac."+phase, a.busy/n, "ratio")
}

// fig14Phase regenerates Fig. 14 once from an empty memo and checks the
// table. On a traced pass the experiments layer records its own cell
// spans (Options.Trace), from which busy time and cell durations come.
//
// The previous phase's garbage is collected and returned to the OS
// first, so every phase starts from the heap a fresh lapexp process
// has: without that, the sampled phase's peak RSS varied by a quarter
// with how much of the previous phase's heap was still resident.
func fig14Phase(ctx context.Context, p *pass, name string, sampled bool) (time.Duration, phaseStats, error) {
	experiments.ResetMemo()
	debug.FreeOSMemory()
	var tr *lap.Tracer
	if p.traced {
		tr = lap.NewTracer(1 << 15)
	}
	opt := fig14Opts(p, sampled, tr)
	before, a0 := experiments.Stats(), allocMB()
	_, sp := otrace.Start(ctx, "fig14."+name)
	t := time.Now()
	tab, err := regenerate(opt)
	d := time.Since(t)
	sp.End()
	after := experiments.Stats()
	st := phaseStats{n: 1, computed: after.Computed - before.Computed,
		recalled: after.Recalled - before.Recalled, allocMB: allocMB() - a0}
	if err != nil {
		return d, st, err
	}
	if len(tab.Rows) != fig14Rows {
		return d, st, fmt.Errorf("fig14 %s: %d rows, want %d", name, len(tab.Rows), fig14Rows)
	}
	if after.Failed != before.Failed {
		return d, st, fmt.Errorf("fig14 %s: %d runs failed", name, after.Failed-before.Failed)
	}
	if tr != nil {
		var busyUs int64
		for _, ev := range tr.Events() {
			if ev.Phase == otrace.PhaseSpan && ev.Name == "memo.compute" {
				busyUs += ev.Dur
				st.cellMs = append(st.cellMs, float64(ev.Dur)/1e3)
			}
		}
		st.busy = float64(busyUs) / 1e6 / (d.Seconds() * float64(opt.Jobs))
	}
	return d, st, p.checkOutput("fig14-quick/"+name, digest([]byte(tableText(tab))))
}

// fig14Mixes are the Table III mixes of Fig. 14 as LAP runs at the
// Quick length, the inputs of the traced pass's layer probes.
func fig14Mixes(p *pass) []simInput {
	opt := fig14Opts(p, false, nil)
	var out []simInput
	for _, m := range lap.TableIII() {
		out = append(out, simInput{name: m.Name, policy: lap.PolicyLAP, mix: m, accesses: opt.Accesses, seed: p.seed})
	}
	return out
}

// sampleProbe times the sample layer's two public calls on the Fig. 14
// Table III mixes: the functional profiling pass and the replay of one
// policy against the profile.
func sampleProbe(p *pass) error {
	cfg := lap.DefaultConfig()
	cfg.SampleInterval = 1000
	cfg.SampleWarmup = 1
	var prof, replay []float64
	var reduction float64
	for _, in := range fig14Mixes(p) {
		t := time.Now()
		pr, err := lap.BuildSampleProfile(cfg, in.mix, in.accesses, in.seed)
		if err != nil {
			return err
		}
		prof = append(prof, ms(time.Since(t)))
		t = time.Now()
		r, err := lap.RunSampledProfile(cfg, in.policy, pr)
		replay = append(replay, ms(time.Since(t)))
		if err == nil && r.Sample == nil {
			err = fmt.Errorf("%s: sampled run carries no estimate", in.name)
		}
		p.op(err)
		if err != nil {
			continue
		}
		reduction += r.Sample.WorkReduction
	}
	p.layer("sample.profile_ms", quantile(prof, 0.5), "ms")
	p.layer("sample.replay_ms", quantile(replay, 0.5), "ms")
	p.layer("sample.work_reduction", reduction/float64(len(prof)), "ratio")
	return nil
}

// simProbe splits the exact simulation of the Fig. 14 Table III mixes
// across the workload, sim, core and cache layers.
func simProbe(p *pass) error {
	cfg := lap.DefaultConfig()
	var tot layerTotals
	for _, in := range fig14Mixes(p) {
		_, err := probeRun(cfg, in, &tot)
		p.op(err)
	}
	tot.report(p, "")
	return nil
}
