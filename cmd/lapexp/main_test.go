package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// tinyOptions keeps the test's simulations cheap.
func tinyOptions() experiments.Options {
	opt := experiments.Quick()
	opt.Accesses = 500
	opt.Jobs = 2
	return opt
}

// TestTimingsReportRoundTrip drives the -timings path end to end:
// generate a real artifact at tiny scale, encode the report exactly as
// `lapexp -timings out.json` writes it, and unmarshal it back into the
// typed struct. A field rename or dropped json tag breaks this test
// before it breaks a downstream consumer of the timings file.
func TestTimingsReportRoundTrip(t *testing.T) {
	experiments.ResetMemo()
	var tables strings.Builder
	report, err := generate(tinyOptions(), []string{"fig2"}, "", &tables, io.Discard)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if tables.Len() == 0 {
		t.Fatal("artifact printed no table")
	}

	buf, err := encodeTimings(report)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back timingReport
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("the emitted timings JSON does not unmarshal: %v", err)
	}

	if back.Jobs != 2 || back.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("context fields lost: jobs=%d gomaxprocs=%d", back.Jobs, back.GOMAXPROCS)
	}
	if back.Accesses != 500 {
		t.Errorf("accesses: got %d, want 500", back.Accesses)
	}
	if len(back.Artifacts) != 1 {
		t.Fatalf("artifacts: got %d entries, want 1", len(back.Artifacts))
	}
	a := back.Artifacts[0]
	if a.Artifact != "fig2" {
		t.Errorf("artifact name: %q", a.Artifact)
	}
	if a.Runs == 0 {
		t.Error("artifact reports zero executed runs")
	}
	if a.Seconds <= 0 || a.RunsPerSec <= 0 {
		t.Errorf("timing fields not populated: seconds=%v runs/sec=%v", a.Seconds, a.RunsPerSec)
	}
	if back.TotalRuns != a.Runs {
		t.Errorf("total runs %d != artifact runs %d", back.TotalRuns, a.Runs)
	}
	if back.TotalSeconds <= 0 || back.RunsPerSec <= 0 {
		t.Errorf("totals not populated: %+v", back)
	}
	// The peak resident set comes from /proc/self/status and is left out
	// where that file cannot be read.
	if _, err := os.Stat("/proc/self/status"); err == nil && back.PeakRSSMB <= 0 {
		t.Errorf("peak_rss_mb not populated: %v", back.PeakRSSMB)
	} else if err != nil && strings.Contains(string(buf), "peak_rss_mb") {
		t.Errorf("peak_rss_mb reported without /proc/self/status: %s", buf)
	}

	// The document must survive a second encode byte-identically (the
	// struct has no unkeyed or dropped fields).
	buf2, err := encodeTimings(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Error("timings JSON is not stable across a decode/encode cycle")
	}
}

// TestTimingsCounters: the counters block carries the obs snapshot of
// the process-wide memo/pool instrumentation and agrees with the
// artifact timing fields, and it survives the JSON round trip.
func TestTimingsCounters(t *testing.T) {
	experiments.ResetMemo()
	report, err := generate(tinyOptions(), []string{"fig2"}, "", io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	attachCounters(&report)
	computed := report.Counters["lapexp_memo_computed_total"]
	if computed < float64(report.TotalRuns) {
		t.Errorf("counters computed=%v below report total runs %d", computed, report.TotalRuns)
	}
	if _, ok := report.Counters["lapexp_pool_tasks_total"]; !ok {
		t.Error("pool counters missing from snapshot")
	}

	buf, err := encodeTimings(report)
	if err != nil {
		t.Fatal(err)
	}
	var back timingReport
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["lapexp_memo_computed_total"] != computed {
		t.Errorf("counters lost in round trip: %v != %v",
			back.Counters["lapexp_memo_computed_total"], computed)
	}
}

// TestGenerateUnknownArtifact pins the error (not os.Exit) contract of
// the extracted generate function.
func TestGenerateUnknownArtifact(t *testing.T) {
	_, err := generate(tinyOptions(), []string{"fig999"}, "", io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "fig999") {
		t.Fatalf("want an unknown-artifact error naming fig999, got %v", err)
	}
}

// TestChaosGeneratePartialResults pins the per-artifact failure domain:
// a panic injected into the first artifact's first simulation costs that
// artifact alone. It lands in report.Failures with the failing cell's
// label, and the remaining artifact still generates and prints.
func TestChaosGeneratePartialResults(t *testing.T) {
	experiments.ResetMemo()
	fault.Reset()
	t.Cleanup(fault.Reset)
	if err := fault.Arm(fault.Spec{Point: fault.PointExpRun, Mode: fault.ModePanic, Count: 1}); err != nil {
		t.Fatal(err)
	}

	opt := tinyOptions()
	opt.Jobs = 1 // serial: the Count:1 panic deterministically hits fig2's first cell
	var tables strings.Builder
	report, err := generate(opt, []string{"fig2", "fig4"}, "", &tables, io.Discard)
	if err != nil {
		t.Fatalf("generate returned a hard error; want partial results: %v", err)
	}

	if len(report.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly 1", report.Failures)
	}
	f := report.Failures[0]
	if f.Artifact != "fig2" {
		t.Errorf("failed artifact = %q, want fig2", f.Artifact)
	}
	if !strings.Contains(f.Error, "experiments: run") {
		t.Errorf("failure error %q does not name the failing cell", f.Error)
	}
	if len(report.Artifacts) != 1 || report.Artifacts[0].Artifact != "fig4" {
		t.Fatalf("artifacts = %+v, want fig4 alone", report.Artifacts)
	}
	if tables.Len() == 0 {
		t.Error("surviving artifact printed no table")
	}

	// The failed run was never memoised: disarmed, the same artifact
	// regenerates cleanly on the same process-wide memo.
	fault.Reset()
	healed, err := generate(opt, []string{"fig2"}, "", io.Discard, io.Discard)
	if err != nil || len(healed.Failures) != 0 {
		t.Fatalf("healed generate: err=%v failures=%+v", err, healed.Failures)
	}
}

// TestGenerateRecallsAcrossArtifacts checks the report's recalled
// counters reflect the process-wide memo: generating the same artifact
// twice executes zero new runs the second time.
func TestGenerateRecallsAcrossArtifacts(t *testing.T) {
	experiments.ResetMemo()
	report, err := generate(tinyOptions(), []string{"fig2", "fig2"}, "", io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Artifacts) != 2 {
		t.Fatalf("got %d artifacts", len(report.Artifacts))
	}
	first, second := report.Artifacts[0], report.Artifacts[1]
	if first.Runs == 0 {
		t.Error("first pass executed no runs")
	}
	if second.Runs != 0 {
		t.Errorf("second pass recomputed %d runs; want 0 (memo recall)", second.Runs)
	}
	if second.Recalled == 0 {
		t.Error("second pass recalled nothing")
	}
}
