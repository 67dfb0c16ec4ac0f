// Package experiments regenerates every table and figure of the paper's
// evaluation. Each FigNN/TableNN function runs the required simulations
// and returns a Table whose rows mirror the series the paper plots;
// cmd/lapexp prints them and bench_test.go wraps each in a testing.B
// benchmark. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for measured-vs-paper results.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// Options tunes experiment scale. The defaults trade absolute magnitude
// for wall-clock: shapes (ratios between policies) stabilise well below
// the paper's 2B-cycle windows.
type Options struct {
	// Accesses is the per-core trace length.
	Accesses uint64
	// Seed makes the synthetic workloads deterministic.
	Seed uint64
	// RandomMixes is the random-mix count for Figs. 12-14 (paper: 50).
	RandomMixes int
	// DuelPeriod is the set-dueling window in cycles. The paper uses 10M
	// cycles over 2B-cycle runs; our shorter runs scale the window so the
	// duel still re-elects many times per run.
	DuelPeriod uint64
	// Jobs bounds the scheduler's worker pool for the batched simulation
	// runs (see sched.go): 0 means one worker per schedulable CPU
	// (runtime.GOMAXPROCS), 1 forces the fully serial path, which also
	// walks every run's private levels directly (streams.go). Tables are
	// byte-identical for any value; Jobs only changes wall-clock.
	Jobs int
	// Trace optionally records per-cell wall-clock spans (and the memo's
	// compute-vs-recall provenance) into a span tracer. Nil — the default
	// — is fully off; tables are byte-identical either way, the tracer
	// only observes. Scheduling-only, like Jobs: not part of memo keys.
	Trace *trace.Tracer
	// SampleInterval > 0 switches eligible runs to sampled interval
	// simulation (internal/sample) with this window length in accesses
	// per core. Runs that sampling cannot represent — coherent, profiled,
	// or warmup-bounded configurations — silently stay
	// exact, so one flag can accelerate a whole artifact sweep. Unlike
	// Jobs this changes results (they become estimates), so the sampling
	// knobs ARE part of memo keys: sampled and exact runs never share
	// cache entries.
	SampleInterval uint64
	// SampleClusters is the detailed-interval budget per sampled run
	// (0 = ~sqrt(intervals) automatically).
	SampleClusters int
	// SampleWarmup is the functional re-warm depth before each
	// representative interval.
	SampleWarmup int
	// Checkpoints optionally attaches a durable checkpoint store: exact
	// runs snapshot their machine state every CheckpointEvery accesses
	// and resume from the latest valid snapshot when the same cell is
	// re-run after a crash, and sampling profiles persist across
	// processes. Results are byte-identical with or without a store, so
	// like Jobs neither field is part of memo keys; checkpoint
	// durability failures degrade to cold starts, never run failures.
	Checkpoints *checkpoint.Store
	// CheckpointEvery is the snapshot spacing in accesses (summed over
	// cores) for checkpointed runs; 0 disables run snapshots even with a
	// store attached (profiles still persist).
	CheckpointEvery uint64
}

// Defaults returns the standard experiment scale.
func Defaults() Options {
	return Options{Accesses: 400_000, Seed: 2016, RandomMixes: 50, DuelPeriod: 250_000}
}

// Quick returns a reduced scale for smoke tests and benchmarks.
func Quick() Options {
	return Options{Accesses: 120_000, Seed: 2016, RandomMixes: 8, DuelPeriod: 100_000}
}

// Table is a printable experiment result.
type Table struct {
	// ID and Title identify the paper artifact ("Fig. 14", ...).
	ID    string
	Title string
	// Header and Rows are the column names and data.
	Header []string
	Rows   [][]string
	// Notes carries interpretation hints printed under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f formats a float compactly.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Policy factories. Each run needs a fresh controller because dueling
// state is per-run. Registered policies are constructed through the core
// registry — the same path the CLI and the API use — so the experiment
// tables cannot drift from the shipped dispatch; only the Fig. 25
// ablation stages (not real policies) are built directly.

// registered returns a fresh-controller factory for a registry policy.
func registered(name string, params core.PolicyParams) sim.Controller {
	if _, ok := core.LookupPolicy(name); !ok {
		panic(fmt.Sprintf("experiments: unknown policy %q", name))
	}
	return func() core.Controller {
		c, err := core.NewPolicy(name, params)
		if err != nil {
			panic(err)
		}
		return c
	}
}

// Noni returns the non-inclusive baseline factory.
func Noni() sim.Controller { return registered("non-inclusive", core.PolicyParams{}) }

// Ex returns the exclusive policy factory.
func Ex() sim.Controller { return registered("exclusive", core.PolicyParams{}) }

// Incl returns the inclusive policy factory.
func Incl() sim.Controller { return registered("inclusive", core.PolicyParams{}) }

// dueler is implemented by controllers with set-dueling state.
type dueler interface{ Duel() *cache.Duel }

// withPeriod rescales a controller's dueling window.
func withPeriod(c core.Controller, period uint64) core.Controller {
	if period > 0 {
		if d, ok := c.(dueler); ok {
			d.Duel().PeriodCycles = period
		}
	}
	return c
}

// Flex returns the FLEXclusion factory.
func Flex(opt Options) sim.Controller {
	return registered("FLEXclusion", core.PolicyParams{DuelPeriod: opt.DuelPeriod})
}

// Dswitch returns the Dswitch factory for the LLC technology in cfg: the
// duel weighs writes by the technology's write energy and misses by the
// fill read plus the marginal leakage burned over the exposed (post-MLP)
// portion of a memory access (sim.Config.PolicyParams).
func Dswitch(cfg sim.Config, opt Options) sim.Controller {
	return registered("Dswitch", cfg.PolicyParams(opt.DuelPeriod))
}

// LAP returns the full LAP factory.
func LAP(opt Options) sim.Controller {
	return registered("LAP", core.PolicyParams{DuelPeriod: opt.DuelPeriod})
}

// LAPLRU returns the Fig. 19 always-LRU replacement variant.
func LAPLRU() sim.Controller {
	return registered("LAP-LRU", core.PolicyParams{})
}

// LAPLoop returns the always-loop-aware variant.
func LAPLoop() sim.Controller {
	return registered("LAP-Loop", core.PolicyParams{})
}

// Lhybrid returns the hybrid data-placement policy factory.
func Lhybrid(opt Options) sim.Controller {
	return registered("Lhybrid", core.PolicyParams{DuelPeriod: opt.DuelPeriod})
}

// ReuseDetector returns the STT-RAM reuse-detection bypass competitor.
func ReuseDetector() sim.Controller {
	return registered("reuse-detector", core.PolicyParams{})
}

// RDCopyback returns the reuse-distance copy-back competitor.
func RDCopyback() sim.Controller {
	return registered("rd-copyback", core.PolicyParams{})
}

// HybridStage returns a Fig. 25 ablation stage factory.
func HybridStage(opt Options, winv, loopSTT, nloopSRAM bool) sim.Controller {
	return func() core.Controller {
		return withPeriod(core.NewHybridStage(winv, loopSTT, nloopSRAM), opt.DuelPeriod)
	}
}

// ratio guards against zero denominators.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
