// Command lapsim runs one workload (a named Table III mix, a
// comma-separated custom mix, a single benchmark duplicated per core, or
// a multi-threaded PARSEC surrogate) under one or more inclusion policies
// and prints the full statistics. Multiple policies (comma-separated, or
// "all") simulate concurrently on -jobs workers and report in the order
// given, followed by a comparison normalised to the first policy.
//
// Examples:
//
//	lapsim -policy LAP -mix WH1
//	lapsim -policy non-inclusive,exclusive,LAP -mix WH1
//	lapsim -policy all -mix omnetpp,xalancbmk,mcf,lbm
//	lapsim -policy LAP -bench streamcluster -threads 4
//	lapsim -policy Lhybrid -llc hybrid -mix WH5
//	lapsim -policy LAP -llc sram -mix WL2
//	lapsim -replay trace.bin -policy exclusive -cores 1
//	lapsim -policy LAP,non-inclusive -mix WH1 -trace timeline.json -interval 1000
//
// -trace FILE records each policy's run as a simulated-time timeline
// (nested run → warmup → epoch spans plus per-interval counter series
// for misses, writebacks, fills, redundant fills, and loop blocks) in
// Chrome trace-event JSON — open it in Perfetto or chrome://tracing. A
// .jsonl extension selects the compact JSONL stream instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	lap "repro"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/trace"
)

func main() {
	policy := flag.String("policy", "LAP", "inclusion policy, comma-separated list, or \"all\" (see lap.Policies)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "concurrent policy simulations (with multiple -policy values)")
	mixArg := flag.String("mix", "", "Table III mix name (WL1..WH5) or comma-separated benchmarks")
	bench := flag.String("bench", "", "single benchmark: duplicated per core, or threaded if -threads > 0")
	threads := flag.Int("threads", 0, "run -bench as a multi-threaded workload with coherence")
	llc := flag.String("llc", "stt", "LLC technology: stt, sram, or hybrid")
	ratio := flag.Float64("wr-ratio", 0, "override the STT-RAM write/read energy ratio (Fig. 23)")
	accesses := flag.Uint64("accesses", 400_000, "per-core trace length")
	seed := flag.Uint64("seed", 1, "workload seed")
	cores := flag.Int("cores", 0, "number of cores (0 = keep the config's value)")
	replayFile := flag.String("replay", "", "binary trace file to replay on every core")
	traceOut := flag.String("trace", "", "write a trace-event timeline of every run to this file (.jsonl for JSONL, else Chrome JSON)")
	interval := flag.Uint64("interval", 10_000, "telemetry window for -trace, in accesses summed over cores")
	useDRAM := flag.Bool("dram", false, "use the DDR3-1600 row-buffer memory model")
	warmup := flag.Uint64("warmup", 0, "per-core warmup accesses excluded from statistics")
	prefetch := flag.Int("prefetch", 0, "next-N-line L2 prefetch degree")
	configPath := flag.String("config", "", "JSON machine configuration to start from")
	metricsFile := flag.String("metrics", "", "write a Prometheus text exposition of the run's counters to this file")
	mode := flag.String("mode", "exact", "simulation mode: exact (default) or sampled — interval-sampled simulation; -interval is then the window length in accesses per core")
	clusters := flag.Int("clusters", 0, "sampled mode: detailed intervals per run (0 = ~sqrt(intervals))")
	sampleWarmup := flag.Int("sample-warmup", 1, "sampled mode: functional re-warm intervals before each representative")
	checkpointDir := flag.String("checkpoint-dir", "", "durable checkpoint store: snapshot runs and resume interrupted invocations (mix/bench workloads)")
	checkpointEvery := flag.Uint64("checkpoint-every", 1_000_000, "checkpoint spacing in accesses, summed over cores (with -checkpoint-dir)")
	flag.Parse()

	cfg := lap.DefaultConfig()
	if *configPath != "" {
		loaded, err := lap.LoadConfig(*configPath)
		if err != nil {
			fatal("%v", err)
		}
		cfg = loaded
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	llcSet := *configPath == ""
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "llc" || f.Name == "wr-ratio" {
			llcSet = true
		}
	})
	if llcSet {
		switch strings.ToLower(*llc) {
		case "stt":
			tech := lap.STTRAM()
			if *ratio > 0 {
				tech = tech.WithWriteReadRatio(*ratio)
			}
			cfg = cfg.WithSTTL3(tech)
		case "sram":
			cfg = cfg.WithSRAML3()
		case "hybrid":
			cfg = cfg.WithHybridL3()
		default:
			fatal("unknown -llc %q (want stt, sram, hybrid)", *llc)
		}
	}

	cfg.UseDRAM = cfg.UseDRAM || *useDRAM
	if *warmup > 0 {
		cfg.WarmupAccessesPerCore = *warmup
	}
	if *prefetch > 0 {
		cfg.PrefetchDegree = *prefetch
	}
	sampled := false
	switch *mode {
	case "exact":
	case "sampled":
		sampled = true
		if *replayFile != "" {
			fatal("-mode sampled does not support -replay (profile a mix or bench workload instead)")
		}
		if *threads > 0 {
			fatal("-mode sampled cannot run threaded workloads (coherent state does not survive interval jumps)")
		}
		if *traceOut != "" {
			fatal("-mode sampled does not record telemetry timelines; drop -trace or use -mode exact")
		}
		cfg.SampleInterval = *interval
		cfg.SampleClusters = *clusters
		cfg.SampleWarmup = *sampleWarmup
	default:
		fatal("unknown -mode %q (want exact or sampled)", *mode)
	}
	var ckpt *lap.CheckpointStore
	if *checkpointDir != "" {
		if *replayFile != "" || *threads > 0 {
			fatal("-checkpoint-dir supports mix and bench workloads only")
		}
		if *traceOut != "" {
			fatal("-checkpoint-dir does not combine with -trace (the checkpointed engine runs unobserved)")
		}
		var err error
		if ckpt, err = lap.OpenCheckpointStore(*checkpointDir); err != nil {
			fatal("%v", err)
		}
		if !sampled {
			cfg.CheckpointEvery = *checkpointEvery
		}
	}
	if *bench != "" && *threads > 0 {
		cfg.Cores = *threads
	}
	if err := lap.ValidateConfig(cfg); err != nil {
		fatal("%v", err)
	}

	// The policy registry owns name resolution: canonicalisation, the
	// "all" expansion, and the capability gates (hybrid-only policies on
	// uniform LLCs, exact-only policies in sampled mode) behave exactly
	// as in the library and the lapserved API.
	policies, notices, err := lap.ResolvePolicies(cfg, *policy)
	if err != nil {
		fatal("%v", err)
	}
	for _, n := range notices {
		fmt.Fprintln(os.Stderr, "lapsim: "+n)
	}
	// In sampled mode one functional profile serves every policy: the
	// signatures and checkpoints are policy-independent, so the sweep
	// pays the profiling pass once.
	var prof *lap.SampleProfile
	if sampled {
		mix, err := sampledMix(*bench, *mixArg, cfg.Cores)
		if err != nil {
			fatal("%v", err)
		}
		if ckpt != nil {
			var built bool
			prof, built, err = lap.LoadOrBuildSampleProfile(cfg, mix, *accesses, *seed, ckpt)
			if err == nil && !built {
				fmt.Fprintln(os.Stderr, "lapsim: [profile restored from checkpoint store]")
			}
		} else {
			prof, err = lap.BuildSampleProfile(cfg, mix, *accesses, *seed)
		}
		if err != nil {
			fatal("%v", err)
		}
	}
	// One shared tracer; each policy's run renders onto its own track.
	var tracer *lap.Tracer
	if *traceOut != "" {
		tracer = lap.NewTracer(0)
	}
	runOne := func(p lap.Policy) (lap.Result, error) {
		if sampled {
			return lap.RunSampledProfile(cfg, p, prof)
		}
		tel := lap.TraceTelemetry(tracer, string(p), *interval)
		switch {
		case *replayFile != "":
			return replayTrace(cfg, p, *replayFile, tel)
		case *bench != "" && *threads > 0:
			b, err := lap.BenchmarkByName(*bench)
			if err != nil {
				return lap.Result{}, err
			}
			return lap.RunThreadedObserved(cfg, p, b, *accesses, *seed, tel)
		case *bench != "":
			if ckpt != nil {
				return lap.RunResumable(cfg, p, lap.DuplicateMix(*bench, cfg.Cores), *accesses, *seed, ckpt)
			}
			return lap.RunObserved(cfg, p, lap.DuplicateMix(*bench, cfg.Cores), *accesses, *seed, tel)
		case *mixArg != "":
			mix, err := resolveMix(*mixArg, cfg.Cores)
			if err != nil {
				return lap.Result{}, err
			}
			if ckpt != nil {
				return lap.RunResumable(cfg, p, mix, *accesses, *seed, ckpt)
			}
			return lap.RunObserved(cfg, p, mix, *accesses, *seed, tel)
		default:
			fatal("one of -mix, -bench or -replay is required")
			panic("unreachable")
		}
	}

	// Policies are independent simulations: fan them out on the shared
	// worker pool and report in the deterministic order given. A policy
	// whose simulation panics surfaces as a typed per-task error instead
	// of killing its siblings.
	results := make([]lap.Result, len(policies))
	tasks := make([]pool.Task, len(policies))
	for i, p := range policies {
		tasks[i] = pool.Task{Key: string(p), Do: func() error {
			var err error
			results[i], err = runOne(p)
			return err
		}}
	}
	for i, err := range pool.Run(pool.Workers(*jobs), tasks) {
		if err != nil {
			fatal("%s: %v", policies[i], err)
		}
	}
	for i, res := range results {
		if len(results) > 1 {
			fmt.Printf("=== %s ===\n", policies[i])
		}
		report(res)
		if len(results) > 1 {
			fmt.Println()
		}
	}
	if len(results) > 1 {
		compare(policies, results)
	}
	if *metricsFile != "" {
		if err := writeMetrics(*metricsFile); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "lapsim: [metrics saved to %s]\n", *metricsFile)
	}
	if *traceOut != "" {
		if err := writeTrace(tracer, *traceOut); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "lapsim: [trace saved to %s]\n", *traceOut)
	}
}

// writeTrace exports the recorded timeline: Chrome trace-event JSON by
// default, the compact JSONL stream for .jsonl paths.
func writeTrace(tr *lap.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChromeTrace(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the worker-pool counters as a Prometheus text
// exposition — the same lapsim_pool_* series names a scraping setup
// would use, so ad-hoc CLI runs and the lapserved service stay
// comparable. Registration happens at dump time: the counters are
// cumulative process atomics, so runs without -metrics never build a
// registry.
func writeMetrics(path string) error {
	reg := obs.NewRegistry()
	pool.Register(reg, "lapsim_pool")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := reg.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compare prints EPI and throughput normalised to the first policy.
func compare(policies []lap.Policy, results []lap.Result) {
	base := results[0]
	fmt.Printf("comparison (normalised to %s)\n", policies[0])
	fmt.Printf("  %-14s %10s %10s %12s\n", "policy", "EPI", "rel. EPI", "rel. IPC")
	for i, res := range results {
		relEPI, relIPC := 1.0, 1.0
		if base.EPI.Total() > 0 {
			relEPI = res.EPI.Total() / base.EPI.Total()
		}
		if base.Throughput > 0 {
			relIPC = res.Throughput / base.Throughput
		}
		fmt.Printf("  %-14s %10.4f %10.2f %12.2f\n", policies[i], res.EPI.Total(), relEPI, relIPC)
	}
}

func resolveMix(arg string, cores int) (lap.Mix, error) {
	for _, m := range lap.TableIII() {
		if strings.EqualFold(m.Name, arg) {
			return m, nil
		}
	}
	members := strings.Split(arg, ",")
	if len(members) != cores {
		return lap.Mix{}, fmt.Errorf("mix %q has %d members for %d cores", arg, len(members), cores)
	}
	return lap.Mix{Name: "custom", Members: members}, nil
}

func replayTrace(cfg lap.Config, p lap.Policy, path string, tel *lap.Telemetry) (lap.Result, error) {
	srcs := make([]lap.Source, cfg.Cores)
	files := make([]*os.File, cfg.Cores)
	for i := range srcs {
		f, err := os.Open(path)
		if err != nil {
			return lap.Result{}, err
		}
		files[i] = f
		r, err := trace.NewAutoReader(f)
		if err != nil {
			return lap.Result{}, err
		}
		// Offset each replayed copy so cores do not alias.
		srcs[i] = trace.WithOffset(r, uint64(i)<<50)
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	return lap.RunTracesObserved(cfg, p, srcs, tel)
}

func report(r lap.Result) {
	met := r.Met
	fmt.Printf("policy            %s\n", r.Policy)
	fmt.Printf("instructions      %d\n", met.Instructions)
	fmt.Printf("cycles            %d\n", met.Cycles)
	fmt.Printf("throughput (IPC)  %.3f\n", r.Throughput)
	fmt.Printf("LLC EPI           %.4f nJ/instr (static %.4f, dynamic %.4f)\n",
		r.EPI.Total(), r.EPI.StaticNJPerInstr, r.EPI.DynamicNJPerInstr)
	fmt.Printf("LLC energy        %.1f uJ\n", r.TotalNJ/1000)
	fmt.Printf("LLC accesses      %d (hits %d, misses %d, MPKI %.2f)\n",
		met.L3Accesses, met.L3Hits, met.L3Misses, met.MPKI())
	fmt.Printf("LLC writes        %d (fills %d, dirty %d, clean %d, migrations %d)\n",
		met.WritesToLLC(), met.WritesFill, met.WritesDirty, met.WritesClean, met.MigrationWrites)
	fmt.Printf("tag-only updates  %d\n", met.TagOnlyUpdates)
	fmt.Printf("memory traffic    reads %d, writes %d\n", met.MemReads, met.MemWrites)
	fmt.Printf("L2 evictions      %d (clean %d, dirty %d)\n",
		met.L2Evictions, met.L2CleanEvictions, met.L2DirtyEvictions)
	if met.SnoopProbes > 0 {
		fmt.Printf("coherence         probes %d, dirty transfers %d, traffic %d\n",
			met.SnoopProbes, met.SnoopDirtyTransfers, met.SnoopTraffic)
	}
	if r.DRAM.Reads+r.DRAM.Writes > 0 {
		fmt.Printf("DRAM              row hits %d, closed %d, conflicts %d (hit rate %.1f%%)\n",
			r.DRAM.RowHits, r.DRAM.RowClosed, r.DRAM.RowConflicts, 100*r.DRAM.HitRate())
	}
	fmt.Printf("per-core IPC     ")
	for _, ipc := range r.IPCs {
		fmt.Printf(" %.3f", ipc)
	}
	fmt.Println()
	if s := r.Sample; s != nil {
		fmt.Printf("sampled           %d/%d intervals detailed (+%d warmup), %d clusters, %.1fx work reduction\n",
			s.IntervalsDetailed, s.IntervalsProfiled, s.IntervalsWarmup, s.Clusters, s.WorkReduction)
		fmt.Printf("confidence        miss rate ±%.2f%%, EPI ±%.2f%% (95%% CI)\n",
			100*s.MissRateRelCI, 100*s.EPIRelCI)
	}
}

// sampledMix resolves the workload for a sampled run: -bench duplicates
// one benchmark per core, -mix resolves as usual.
func sampledMix(bench, mixArg string, cores int) (lap.Mix, error) {
	switch {
	case bench != "":
		if _, err := lap.BenchmarkByName(bench); err != nil {
			return lap.Mix{}, err
		}
		return lap.DuplicateMix(bench, cores), nil
	case mixArg != "":
		return resolveMix(mixArg, cores)
	default:
		return lap.Mix{}, fmt.Errorf("one of -mix or -bench is required in sampled mode")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lapsim: "+format+"\n", args...)
	os.Exit(1)
}
