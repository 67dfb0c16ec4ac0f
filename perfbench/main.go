// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator through its public entry points — lap.Run/RunThreaded,
// experiments.Registry and lapserved's HTTP handler — measures what a
// user of each waits on, checks every output, and prints one JSON result
// line. With -trace 1 it instead prints the per-layer split, measured
// from outside each layer by timing calls into its public functions and
// interfaces. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload fig14-quick --seed 2016 --seconds 50 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	lap "repro"
)

// workload is one benchmark input set. measure runs one pass of it and
// records its operations and end-to-end metrics in the pass; a traced
// pass also records per-layer metrics.
type workload struct {
	name    string
	measure func(p *pass) error
}

var workloads = []workload{
	{"fig14-quick", measureFig14},
	{"serve-mixed", measureServe},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line: the outcome counts and the metrics
// BENCHMARK.json lists.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one measurement pass of a workload: its inputs, its time
// budget, whether it is the traced pass, and what it found. Methods on
// pass are safe for concurrent use by the serve-mixed clients.
type pass struct {
	seed    uint64
	seconds float64
	shrink  uint64 // divides every simulation length; 1 except in tests
	traced  bool
	tr      *lap.Tracer // benchmark-side spans; nil on untraced passes

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	e2e       map[string]metric
	layers    map[string]metric
	details   []string

	firstDigest map[string]string // see checkOutput
}

func newPass(seed uint64, seconds float64, shrink uint64, traced bool) *pass {
	p := &pass{seed: seed, seconds: seconds, shrink: shrink, traced: traced,
		e2e: map[string]metric{}, layers: map[string]metric{}}
	if traced {
		p.tr = lap.NewTracer(1 << 17)
	}
	return p
}

// length scales a simulation length (accesses per core) by the pass's
// shrink factor.
func (p *pass) length(n uint64) uint64 { return n / p.shrink }

// op records one attempted operation; a non-nil err marks it failed.
func (p *pass) op(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.problems) < 20 {
			p.problems = append(p.problems, err.Error())
		}
	}
}

// endToEnd sets an end-to-end metric and logs it with its sample count
// and what it stands for on this workload.
func (p *pass) endToEnd(name string, v float64, unit string, samples int, meaning string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.e2e[name] = metric{v, unit}
	p.details = append(p.details, fmt.Sprintf("%-26s %14.6g %-10s n=%-6d %s", name, v, unit, samples, meaning))
}

// layer sets a per-layer metric.
func (p *pass) layer(name string, v float64, unit string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.layers[name] = metric{v, unit}
}

// note logs a detail line (digests, phase sizes) to stdout.
func (p *pass) note(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.details = append(p.details, fmt.Sprintf(format, args...))
}

func main() {
	wl := flag.String("workload", "", "workload name: fig14-quick or serve-mixed")
	seed := flag.Uint64("seed", goldenSeed, "input seed; the committed goldens cover the default")
	seconds := flag.Float64("seconds", 30, "measurement time of one pass")
	traceOn := flag.Int("trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	if flag.NArg() > 0 || *traceOn < 0 || *traceOn > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	res, err := run(os.Stdout, *w, *seed, *seconds, 1, *traceOn == 1, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and returns its result line.
// Untraced, it is one pass of the full duration. Traced, it is an
// untraced pass and a traced pass of half the duration each; the result
// then carries the per-layer metrics plus, for every end-to-end metric,
// the tracing overhead (traced minus untraced).
func run(out io.Writer, w workload, seed uint64, seconds float64, shrink uint64, traced bool, traceDir string) (result, error) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, seed, seconds, traced)
	fmt.Fprintf(out, "# host %s\n", hostFingerprint())
	if !traced {
		p := newPass(seed, seconds, shrink, false)
		err := measurePass(out, w, p)
		return finish(p, p.e2e), err
	}
	base := newPass(seed, seconds/2, shrink, false)
	if err := measurePass(out, w, base); err != nil {
		return result{}, err
	}
	baseHWM := peakRSSMB()
	tp := newPass(seed, seconds/2, shrink, true)
	if err := measurePass(out, w, tp); err != nil {
		return result{}, err
	}
	tp.attempted += base.attempted
	tp.failed += base.failed
	for _, m := range endToEndNames {
		tv, bv := tp.e2e[m].Value, base.e2e[m].Value
		if m == "peak_rss_mb" {
			// VmHWM only grows: the traced pass's own peak shows as
			// growth past the untraced pass's peak.
			bv = baseHWM
		}
		tp.layer("overhead."+m, tv-bv, base.e2e[m].Unit)
	}
	allLayers := map[string]metric{}
	for _, name := range perLayerNames {
		allLayers[name] = metric{0, layerUnit(name)}
	}
	for k, v := range tp.layers {
		allLayers[k] = v
	}
	if err := writeSpans(traceDir, w.name, seed, tp.tr); err != nil {
		return result{}, err
	}
	return finish(tp, allLayers), nil
}

// measurePass runs one pass and prints its detail lines.
func measurePass(out io.Writer, w workload, p *pass) error {
	label := "untraced"
	if p.traced {
		label = "traced"
	}
	fmt.Fprintf(out, "# pass %s (%.3g s)\n", label, p.seconds)
	err := w.measure(p)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.details {
		fmt.Fprintf(out, "  %s\n", d)
	}
	for _, pr := range p.problems {
		fmt.Fprintf(out, "  FAILED: %s\n", pr)
	}
	fmt.Fprintf(out, "  operations attempted=%d failed=%d\n", p.attempted, p.failed)
	if err != nil {
		return fmt.Errorf("%s %s pass: %w", w.name, label, err)
	}
	return nil
}

func finish(p *pass, metrics map[string]metric) result {
	return result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   metrics,
	}
}

// writeSpans writes the traced pass's spans, kept in memory during the
// run, as one Chrome trace-event file.
func writeSpans(dir, workload string, seed uint64, tr *lap.Tracer) error {
	if dir == "" || tr == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// hostFingerprint identifies the machine and code a result came from.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	clock := "unknown"
	if b, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource"); err == nil {
		clock = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s clocksource=%s rev=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), clock, gitRev())
}

// gitRev is the short revision of the repository the benchmark runs in,
// or "none" outside a git checkout. Only a .git in the working directory
// counts, so an enclosing repository is never reported by mistake.
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// allocMB is the heap allocated since process start, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest quantile, up to want, that has at least
// ten samples beyond it, and never below the median: with few samples
// the tail metric falls back toward the median instead of reporting a
// percentile no sample supports.
func tailQuantile(n int, want float64) float64 {
	q := 1 - 10/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportEndToEnd sets the end-to-end metrics every workload reports.
// exercise and bypass are per-operation wall-clock samples in ms of the
// workload's two operation classes, maccess per-sample throughputs; the
// what strings say what each stands for on this workload.
func (p *pass) reportEndToEnd(setup, exercise, bypass, maccess []float64, exWhat, byWhat, tputWhat string) {
	p.endToEnd("setup_s", quantile(setup, 0.5), "s", len(setup), "median set-up")
	p.endToEnd("peak_rss_mb", peakRSSMB(), "MB", 1, "VmHWM at the end of the pass")
	p.endToEnd("maccess_per_s", quantile(maccess, 0.5), "Maccess/s", len(maccess), tputWhat)
	// p90, not p99: on a shared 2-vCPU host the warm /v1/run p99 moved
	// by a quarter to a half between identical runs, wider than any
	// usable regression bound.
	qe, qb := tailQuantile(len(exercise), 0.9), tailQuantile(len(bypass), 0.9)
	p.endToEnd("exercise_p50_ms", quantile(exercise, 0.5), "ms", len(exercise), exWhat)
	p.endToEnd("exercise_tail_ms", quantile(exercise, qe), "ms", len(exercise), fmt.Sprintf("p%.3g of %s", 100*qe, exWhat))
	p.endToEnd("bypass_p50_ms", quantile(bypass, 0.5), "ms", len(bypass), byWhat)
	p.endToEnd("bypass_tail_ms", quantile(bypass, qb), "ms", len(bypass), fmt.Sprintf("p%.3g of %s", 100*qb, byWhat))
}
