// Command lapexp regenerates the paper's tables and figures. With no
// arguments it runs everything; otherwise pass artifact IDs such as
// "fig2", "fig14", "table1".
//
// Independent simulation runs inside each artifact execute on a worker
// pool (-jobs, default one worker per CPU); tables are byte-identical
// for any -jobs value, including the fully serial -jobs 1.
//
// Each artifact is its own failure domain: a generator that panics (a
// corrupt run, an injected fault) is reported and skipped, the remaining
// artifacts still generate, and the process exits non-zero. The
// LAP_FAULTS environment variable arms internal/fault injection points
// for chaos runs.
//
// Usage:
//
//	lapexp [-quick] [-accesses N] [-seed S] [-jobs N] [-timings out.json]
//	       [-mode exact|sampled] [-interval N] [-clusters K] [artifact ...]
//
// The default -mode exact is bit-reproducible run to run. -mode sampled
// switches eligible runs to interval-sampled simulation (one functional
// profiling pass per workload, detailed simulation of one
// representative interval per cluster, extrapolation by cluster
// weight): ~10-50x faster sweeps at a small, reported accuracy cost.
// See EXPERIMENTS.md "Sampled simulation".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// artifactTiming is one artifact's perf record in the -timings report.
type artifactTiming struct {
	Artifact string `json:"artifact"`
	// Seconds is the artifact's wall-clock generation time.
	Seconds float64 `json:"seconds"`
	// Runs is the number of simulations actually executed; Recalled the
	// number served from the process-wide memo.
	Runs     uint64 `json:"runs"`
	Recalled uint64 `json:"recalled"`
	// RunsPerSec is the executed-simulation throughput.
	RunsPerSec float64 `json:"runs_per_sec"`
}

// artifactFailure records one artifact that could not be generated.
type artifactFailure struct {
	Artifact string `json:"artifact"`
	Error    string `json:"error"`
}

// timingReport is the -timings JSON document: enough context to compare
// run rates across machines, scales, and future PRs. Failures is empty
// on a clean run, so clean reports are byte-identical to pre-failure-
// domain ones.
type timingReport struct {
	Jobs         int               `json:"jobs"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	Accesses     uint64            `json:"accesses"`
	Seed         uint64            `json:"seed"`
	RandomMixes  int               `json:"random_mixes"`
	TotalSeconds float64           `json:"total_seconds"`
	TotalRuns    uint64            `json:"total_runs"`
	RunsPerSec   float64           `json:"runs_per_sec"`
	Artifacts    []artifactTiming  `json:"artifacts"`
	Failures     []artifactFailure `json:"failures,omitempty"`
	// PeakRSSMB is the process's peak resident set (VmHWM) once every
	// artifact has been generated, in MiB; absent where
	// /proc/self/status cannot be read.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// Counters is the obs snapshot of the process-wide memo and pool
	// instrumentation ("lapexp_memo_computed_total" etc.), the same series
	// lapserved exposes on /metrics. Populated only for -timings runs.
	Counters map[string]float64 `json:"counters,omitempty"`
}

func main() {
	if n, err := fault.ArmFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "lapexp: %s: %v\n", fault.EnvVar, err)
		os.Exit(1)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "[%d fault spec(s) armed from %s]\n", n, fault.EnvVar)
	}
	quick := flag.Bool("quick", false, "reduced scale for a fast smoke run")
	accesses := flag.Uint64("accesses", 0, "override per-core trace length")
	seed := flag.Uint64("seed", 0, "override workload seed")
	jobs := flag.Int("jobs", runtime.NumCPU(), "concurrent simulation runs (1 = serial)")
	list := flag.Bool("list", false, "list available artifacts and exit")
	csvDir := flag.String("csv", "", "also save each artifact as CSV into this directory")
	timings := flag.String("timings", "", "write per-artifact wall-clock and runs/sec JSON to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace-event timeline of every simulation cell to this file (.jsonl for JSONL)")
	mode := flag.String("mode", "exact", "simulation mode: exact (default, bit-reproducible) or sampled (interval sampling, estimates)")
	interval := flag.Uint64("interval", 0, "sampled mode: interval length in accesses per core (0 = accesses/50, min 1000)")
	clusters := flag.Int("clusters", 0, "sampled mode: detailed intervals per run (0 = ~sqrt(intervals))")
	sampleWarmup := flag.Int("sample-warmup", 1, "sampled mode: functional re-warm intervals before each representative")
	checkpointDir := flag.String("checkpoint-dir", "", "durable checkpoint store: runs snapshot and resume across invocations (tables byte-identical either way)")
	checkpointEvery := flag.Uint64("checkpoint-every", 1_000_000, "checkpoint spacing in accesses, summed over cores (with -checkpoint-dir)")
	flag.Parse()

	opt := experiments.Defaults()
	if *quick {
		opt = experiments.Quick()
	}
	if *accesses > 0 {
		opt.Accesses = *accesses
	}
	if *seed > 0 {
		opt.Seed = *seed
	}
	opt.Jobs = *jobs
	switch *mode {
	case "exact":
	case "sampled":
		opt.SampleInterval = *interval
		if opt.SampleInterval == 0 {
			opt.SampleInterval = opt.Accesses / 50
		}
		if opt.SampleInterval < 1000 {
			opt.SampleInterval = 1000
		}
		opt.SampleClusters = *clusters
		opt.SampleWarmup = *sampleWarmup
	default:
		fmt.Fprintf(os.Stderr, "lapexp: unknown -mode %q (want exact or sampled)\n", *mode)
		os.Exit(2)
	}
	if *traceOut != "" {
		// Tables stay byte-identical; the tracer only observes the cells
		// (wall-clock spans, memo compute-vs-recall provenance).
		opt.Trace = trace.New(0)
	}
	if *checkpointDir != "" {
		st, err := checkpoint.Open(*checkpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lapexp: -checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
		opt.Checkpoints = st
		opt.CheckpointEvery = *checkpointEvery
	}

	all := experiments.Registry(opt)
	if *list {
		names := make([]string, 0, len(all))
		for name := range all {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = experiments.Order()
	}
	report, err := generate(opt, targets, *csvDir, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapexp: %v\n", err)
		os.Exit(1)
	}
	if *timings != "" {
		attachCounters(&report)
		buf, err := encodeTimings(report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lapexp: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*timings, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lapexp: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[timings saved to %s]\n", *timings)
	}
	if *traceOut != "" {
		if err := writeTrace(opt.Trace, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "lapexp: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[trace saved to %s]\n", *traceOut)
	}
	if len(report.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "lapexp: %d of %d artifact(s) failed\n",
			len(report.Failures), len(report.Failures)+len(report.Artifacts))
		os.Exit(1)
	}
}

// writeTrace exports the per-cell timeline recorded during generate.
func writeTrace(tr *trace.Tracer, path string) error {
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

// generate runs the named artifacts under opt, printing each table to
// stdout (and CSV into csvDir when non-empty), and returns the timing
// report. Split from main so tests can drive the -timings path without
// exec'ing the binary.
func generate(opt experiments.Options, targets []string, csvDir string, stdout, stderr io.Writer) (timingReport, error) {
	all := experiments.Registry(opt)
	report := timingReport{
		Jobs:        opt.Jobs,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Accesses:    opt.Accesses,
		Seed:        opt.Seed,
		RandomMixes: opt.RandomMixes,
	}
	allStart := time.Now()
	for _, name := range targets {
		gen, ok := all[strings.ToLower(name)]
		if !ok {
			return report, fmt.Errorf("unknown artifact %q (try -list)", name)
		}
		before := experiments.Stats()
		start := time.Now()
		tab, genErr := runArtifact(gen)
		elapsed := time.Since(start)
		after := experiments.Stats()
		if genErr != nil {
			// The artifact is its own failure domain: report, skip, and
			// keep generating the rest.
			report.Failures = append(report.Failures, artifactFailure{
				Artifact: strings.ToLower(name),
				Error:    genErr.Error(),
			})
			fmt.Fprintf(stderr, "[%s FAILED after %v: %v]\n", name, elapsed.Round(time.Millisecond), genErr)
			continue
		}
		tab.Fprint(stdout)
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return report, err
			}
			path, err := tab.SaveCSV(csvDir)
			if err != nil {
				return report, err
			}
			fmt.Fprintf(stderr, "[saved %s]\n", path)
		}
		runs := after.Computed - before.Computed
		rate := 0.0
		if s := elapsed.Seconds(); s > 0 {
			rate = float64(runs) / s
		}
		report.Artifacts = append(report.Artifacts, artifactTiming{
			Artifact:   strings.ToLower(name),
			Seconds:    elapsed.Seconds(),
			Runs:       runs,
			Recalled:   after.Recalled - before.Recalled,
			RunsPerSec: rate,
		})
		fmt.Fprintf(stderr, "[%s done in %v: %d runs, %d recalled]\n",
			name, elapsed.Round(time.Millisecond), runs, after.Recalled-before.Recalled)
	}
	report.TotalSeconds = time.Since(allStart).Seconds()
	for _, a := range report.Artifacts {
		report.TotalRuns += a.Runs
	}
	if report.TotalSeconds > 0 {
		report.RunsPerSec = float64(report.TotalRuns) / report.TotalSeconds
	}
	report.PeakRSSMB = peakRSSMB()
	return report, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0
// when /proc/self/status cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runArtifact executes one generator with panic isolation: a simulation
// that dies (experiments.run panics with the failing cell's label) costs
// its own artifact, never the whole invocation.
func runArtifact(gen experiments.Generator) (tab *experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return gen(), nil
}

// attachCounters embeds the obs snapshot of the process-wide memo and
// pool instrumentation into the report, under the same series names
// lapserved exposes on /metrics. Snapshot-time registration: the
// counters are cumulative process atomics, so registering after the runs
// reads the same values as registering before them — and runs without
// -timings never touch a registry at all.
func attachCounters(report *timingReport) {
	reg := obs.NewRegistry()
	experiments.RegisterMetrics(reg, "lapexp")
	report.Counters = reg.Snapshot()
}

// encodeTimings renders the -timings document exactly as written to disk.
func encodeTimings(report timingReport) ([]byte, error) {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
