package main

import "strings"

// setupRounds is how many times each workload sets up per pass; the
// median is reported as setup_s.
const setupRounds = 9

// goldenSeed is the committed seed: golden.json pins every simulated
// output at it. It is experiments.Quick's seed, so the exact Fig. 14
// digest equals that of `lapexp -quick fig14`.
const goldenSeed = 2016

// endToEndNames is the end-to-end metric set. Every workload reports
// every one of them (BENCHMARK.json has one metric list for all
// workloads); README.md maps each to what it measures per workload.
var endToEndNames = []string{
	"setup_s", "peak_rss_mb", "maccess_per_s",
	"exercise_p50_ms", "exercise_tail_ms", "bypass_p50_ms", "bypass_tail_ms",
}

// simLayerNames are the per-layer metrics of one wrapped simulation
// input (see layers.go); they carry the input's suffix.
var simLayerNames = []string{
	"workload.ns_per_access", "sim.self_ns_per_access",
	"l1.miss_ratio", "l2.miss_ratio", "coherence.probes_per_access",
	"core.fetch_ns", "core.evict_ns", "core.fetch_per_access", "core.evict_per_access",
	"cache.l2_lookup_ns", "cache.llc_lookup_ns",
	"llc.hit_ratio", "llc.writes_per_access", "llc.tag_only_per_access",
}

// perLayerNames is every per-layer metric a traced run prints. A layer
// the workload does not run reports 0.
var perLayerNames = func() []string {
	var out []string
	for _, suffix := range []string{".wh1", ".swaptions", ""} {
		for _, n := range simLayerNames {
			out = append(out, n+suffix)
		}
	}
	out = append(out,
		"sample.profile_ms", "sample.replay_ms", "sample.work_reduction", "sample.alloc_mb",
		"experiments.runs_computed.exact", "experiments.runs_computed.sampled",
		"experiments.runs_recalled.exact", "experiments.runs_recalled.sampled",
		"experiments.busy_frac.exact", "experiments.busy_frac.sampled",
		"experiments.cell_p50_ms", "experiments.cell_max_ms", "experiments.alloc_mb",
		"workload.ns_per_access.cold",
		"server.handler_warm_us", "server.transport_warm_us", "server.cold_overhead_ms",
		"server.queue_wait_ms_p90", "server.sweep_p50_ms",
		"memo.recall_frac.warm", "memo.computed.cold", "pool.busy_frac.sweep",
		"server.resp_bytes.run", "server.resp_bytes.sweep",
	)
	for _, n := range endToEndNames {
		out = append(out, "overhead."+n)
	}
	return out
}()

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	base := name
	if rest, ok := strings.CutPrefix(name, "overhead."); ok {
		return endToEndUnit(rest)
	}
	for _, s := range []string{".wh1", ".swaptions", ".exact", ".sampled", ".warm", ".cold", ".sweep", ".run"} {
		base = strings.TrimSuffix(base, s)
	}
	switch {
	case strings.HasSuffix(base, "_ns") || strings.HasSuffix(base, "ns_per_access"):
		return "ns"
	case strings.HasSuffix(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "_ms") || strings.HasSuffix(base, "_ms_p90"):
		return "ms"
	case strings.HasSuffix(base, "_mb"):
		return "MB"
	case strings.HasPrefix(base, "experiments.runs_") || base == "memo.computed":
		return "count"
	case base == "server.resp_bytes":
		return "bytes"
	default:
		return "ratio"
	}
}

func endToEndUnit(name string) string {
	switch name {
	case "setup_s":
		return "s"
	case "peak_rss_mb":
		return "MB"
	case "maccess_per_s":
		return "Maccess/s"
	default:
		return "ms"
	}
}
