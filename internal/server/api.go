package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	lap "repro"
	"repro/internal/fault"
	"repro/internal/obs/journal"
	"repro/internal/pool"
	"repro/internal/trace"
)

// The wire types of lapserved's JSON API. Response structs contain only
// deterministic, order-stable fields: a sweep's body must be
// byte-identical regardless of worker count, so nothing scheduling-
// dependent (timings, cache hit flags, jobs) ever appears in a result.

// RunRequest asks for one simulation. Exactly one of Mix, Bench, or
// Trace selects the workload; Config is a partial machine configuration
// overlaid on the paper's defaults (same semantics as `lapsim -config`).
type RunRequest struct {
	// Config is a partial sim.Config JSON object (omitted fields keep the
	// paper's Table II defaults).
	Config json.RawMessage `json:"config,omitempty"`
	// Policy is an inclusion policy name (lap.Policies, optionally with
	// the "+DWB" suffix). Default "LAP".
	Policy string `json:"policy,omitempty"`
	// Mix is a Table III mix name (WL1..WH5) or comma-separated benchmark
	// names, one per core.
	Mix string `json:"mix,omitempty"`
	// Bench is a single benchmark duplicated per core, or run threaded
	// with coherence when Threads > 0.
	Bench   string `json:"bench,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Trace names a previously uploaded trace (POST /v1/traces), replayed
	// on every core.
	Trace string `json:"trace,omitempty"`
	// Accesses is the per-core trace length (default 400000; for Trace
	// workloads, default the full trace).
	Accesses uint64 `json:"accesses,omitempty"`
	// Seed makes the synthetic workloads deterministic (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Mode selects the simulation mode: "" or "exact" (default,
	// bit-reproducible) or "sampled" (interval-sampled estimation for mix
	// and bench workloads; threaded and trace runs must stay exact).
	// Sampled results carry sampled:true plus a Sample error report, and
	// cache separately from exact results for the same workload.
	Mode string `json:"mode,omitempty"`
	// SampleInterval is the sampled-mode interval length in accesses per
	// core (0 = accesses/50, floored at 1000). Requires Mode "sampled".
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	// SampleClusters is the number of detailed representative intervals
	// (0 = ~sqrt of the interval count). Requires Mode "sampled".
	SampleClusters int `json:"sample_clusters,omitempty"`
	// SampleWarmup is the functional re-warm window count before each
	// representative (0 = 1). Requires Mode "sampled".
	SampleWarmup int `json:"sample_warmup,omitempty"`
}

// RunResult is one simulation's outcome. Error is set — and the metric
// fields zero — when the cell failed; it is omitted entirely on success,
// so successful cells serialize byte-identically whether or not other
// cells of their sweep failed.
type RunResult struct {
	Policy       string    `json:"policy"`
	Workload     string    `json:"workload"`
	Accesses     uint64    `json:"accesses"`
	Seed         uint64    `json:"seed"`
	MPKI         float64   `json:"mpki"`
	Throughput   float64   `json:"throughput"`
	Cycles       uint64    `json:"cycles"`
	EPIStaticNJ  float64   `json:"epi_static_nj"`
	EPIDynamicNJ float64   `json:"epi_dynamic_nj"`
	EPITotalNJ   float64   `json:"epi_total_nj"`
	TotalNJ      float64   `json:"total_nj"`
	IPCs         []float64 `json:"ipcs"`
	// Sampled marks an interval-sampled (estimated) result; Sample then
	// carries the run's confidence report. Both are absent on exact runs,
	// so exact responses stay byte-identical to pre-sampling versions.
	Sampled bool                `json:"sampled,omitempty"`
	Sample  *lap.SampleEstimate `json:"sample,omitempty"`
	Error   *CellError          `json:"error,omitempty"`
}

// CellError is one failed cell's error on the wire. Kind is the failure
// taxonomy: "fault" (injected), "panic" (recovered simulation panic),
// "cancelled" (drain or client cancel), "timeout" (request deadline),
// "error" (anything else).
type CellError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// SweepRequest fans one run per (mix, policy) grid cell onto the worker
// pool. Results come back mix-major in request order, byte-identical for
// any Jobs value.
type SweepRequest struct {
	Config json.RawMessage `json:"config,omitempty"`
	// Policies defaults to every implemented policy (Table IV order).
	Policies []string `json:"policies,omitempty"`
	// Mixes defaults to the ten Table III mixes. Each entry is a mix name
	// or comma-separated benchmark names.
	Mixes    []string `json:"mixes,omitempty"`
	Accesses uint64   `json:"accesses,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	// Jobs caps the sweep's fan-out; clamped to the server's worker cap.
	// 0 uses the server cap, 1 is fully serial.
	Jobs int `json:"jobs,omitempty"`
	// Mode and the Sample* knobs apply to every cell (see RunRequest).
	// A sampled sweep pays one functional profiling pass per mix, shared
	// across its policies.
	Mode           string `json:"mode,omitempty"`
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	SampleClusters int    `json:"sample_clusters,omitempty"`
	SampleWarmup   int    `json:"sample_warmup,omitempty"`
}

// SweepResponse carries the grid's results, mix-major in request order.
// A sweep is a partial-result API: failed cells stay in Results (with
// Error set) so the grid keeps its shape, and Failed/Cancelled count
// them. Both counters are zero — and omitted — on a fully clean sweep,
// keeping clean responses byte-identical to pre-failure-domain ones.
type SweepResponse struct {
	Results   []RunResult `json:"results"`
	Failed    int         `json:"failed,omitempty"`
	Cancelled int         `json:"cancelled,omitempty"`
	// Skipped lists policies the default ("all") policy expansion
	// dropped as ineligible under the request's configuration, with the
	// reason. Empty — and omitted — when policies were named explicitly
	// or nothing was skipped.
	Skipped []string `json:"skipped,omitempty"`
}

// TraceUploadResponse acknowledges a stored trace.
type TraceUploadResponse struct {
	Name    string `json:"name"`
	Records uint64 `json:"records"`
	Digest  string `json:"digest"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	// Computed/Recalled/Evicted are the cumulative result-cache counters:
	// simulations executed, requests served by coalescing or recall, and
	// entries dropped by the LRU bound.
	Computed uint64 `json:"computed"`
	Recalled uint64 `json:"recalled"`
	Evicted  uint64 `json:"evicted"`
	// MemoEntries is the current resident entry count.
	MemoEntries int `json:"memo_entries"`
	// Queued counts admitted-but-unfinished jobs (the bounded queue's
	// occupancy); InFlight the simulations executing right now.
	Queued   int64 `json:"queued"`
	InFlight int64 `json:"in_flight"`
	// Traces is the number of stored uploaded traces.
	Traces int `json:"traces"`
	// Run latency quantiles over the most recent computed simulations
	// (seconds); zero until the first simulation completes.
	RunLatencyP50Sec  float64 `json:"run_latency_p50_sec"`
	RunLatencyP95Sec  float64 `json:"run_latency_p95_sec"`
	RunLatencySamples int     `json:"run_latency_samples"`
	// MemoFailed counts computations that errored or panicked (never
	// cached); Failures counts runs that stayed failed after retries,
	// Retries the retry attempts made.
	MemoFailed uint64 `json:"memo_failed"`
	Failures   uint64 `json:"failures"`
	Retries    uint64 `json:"retries"`
	// Breaker state: "closed", "open", "half-open", or "disabled";
	// BreakerOpens counts trips, BreakerShed requests refused with 503.
	BreakerState string `json:"breaker_state"`
	BreakerOpens uint64 `json:"breaker_opens"`
	BreakerShed  uint64 `json:"breaker_shed"`
	// Checkpoint reports the attached checkpoint store's durability
	// counters; absent when no store is configured, so storeless
	// responses stay byte-identical to pre-checkpoint versions.
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`
	// Events reports the operational journal's counters (emitted events,
	// ring/subscriber drops, live /v1/events subscribers); absent when
	// the journal is disabled.
	Events *journal.Stats `json:"events,omitempty"`
	// SLO reports the rolling-window request objectives and burn rates.
	SLO *SLOStats `json:"slo,omitempty"`
}

// SLOStats is the /v1/stats slo block: the configured objectives plus
// one rolling-window accounting row per configured window.
type SLOStats struct {
	// Objective is the availability target (fraction of run/sweep
	// requests that must not fail server-side).
	Objective float64 `json:"objective"`
	// LatencyObjective is the fraction of requests that must finish
	// within LatencyTargetSec.
	LatencyObjective float64     `json:"latency_objective"`
	LatencyTargetSec float64     `json:"latency_target_sec"`
	Windows          []SLOWindow `json:"windows"`
}

// SLOWindow is one rolling window's request accounting. Burn rates are
// the SRE convention: bad-event fraction divided by the error budget
// (1 − objective); 1.0 burns the budget exactly at the window's pace,
// higher exhausts it early.
type SLOWindow struct {
	Window           string  `json:"window"`
	Total            uint64  `json:"total"`
	Errors           uint64  `json:"errors"`
	Slow             uint64  `json:"slow"`
	SuccessRate      float64 `json:"success_rate"`
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
}

// ReadyzResponse is the GET /readyz payload. Ready gates routing:
// false (with a 503) from drain start and while the breaker is open.
// Degraded lists watchdog subsystems currently unhealthy — advisory
// detail, not a readiness gate.
type ReadyzResponse struct {
	Ready    bool     `json:"ready"`
	Reasons  []string `json:"reasons,omitempty"`
	Degraded []string `json:"degraded,omitempty"`
}

// CheckpointStats is the checkpoint store's counter snapshot on the
// wire (see internal/checkpoint.Metrics for semantics).
type CheckpointStats struct {
	// Writes/WriteErrors count checkpoint persist attempts and failures;
	// a write failure never fails the run it was snapshotting.
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors,omitempty"`
	// Restores counts runs warm-started from a stored checkpoint;
	// IntervalsSaved sums the checkpoint intervals those restores skipped
	// re-simulating.
	Restores       uint64 `json:"restores"`
	IntervalsSaved uint64 `json:"resume_intervals_saved"`
	// Corrupt and VersionMismatch count quarantined entries (CRC or key
	// echo failures, and intact files from another format version).
	Corrupt         uint64 `json:"corrupt,omitempty"`
	VersionMismatch uint64 `json:"version_mismatch,omitempty"`
	// BytesWritten/BytesRead meter store I/O volume.
	BytesWritten uint64 `json:"bytes_written"`
	BytesRead    uint64 `json:"bytes_read"`
}

// HealthzResponse is the GET /healthz payload: liveness plus the
// signals an operator needs first when the instance looks sick.
type HealthzResponse struct {
	// Status is "ok", or "draining" while the instance is being pulled
	// from rotation. Liveness is always 200 — /readyz carries the 503
	// that takes the instance out of routing.
	Status string `json:"status"`
	// Breaker is the circuit breaker's position: "closed", "open",
	// "half-open", or "disabled".
	Breaker string `json:"breaker"`
	// QueueDepth is the bounded job queue's occupancy, QueueLimit its
	// configured bound (admissions past it answer 429).
	QueueDepth int64 `json:"queue_depth"`
	QueueLimit int   `json:"queue_limit"`
	// InFlight is the number of simulations executing right now.
	InFlight int64 `json:"in_flight"`
}

// errorResponse is every non-2xx body. Kind carries the failure taxonomy
// (see CellError); Field names the offending Config field on validation
// failures.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
	Field string `json:"field,omitempty"`
}

// runKey identifies one simulation run in the result cache. lap.Config
// is embedded by value (comparable — see sim's TestMemoKeyConfigFields),
// so identical (config, workload) pairs coalesce onto one computation.
type runKey struct {
	Cfg      lap.Config
	Policy   string
	Workload string
	Accesses uint64
	Seed     uint64
}

// profileKey identifies one functional profile in the server's profile
// cache. Policy is absent — profiles are policy-independent — and the
// replay-shaping knobs (Banks, SampleClusters, SampleWarmup) are
// normalised away, so a sampled sweep's six-plus policies per mix share
// one profiling pass.
type profileKey struct {
	Cfg      lap.Config
	Workload string
	Accesses uint64
	Seed     uint64
}

// profileFor builds (or recalls) the functional profile for a sampled
// spec. Coalescing matters here the same way it does for runs:
// concurrent policies over one workload block on a per-key latch while
// the first builds the profile.
func (s *Server) profileFor(sp *runSpec) (*lap.SampleProfile, error) {
	kcfg := sp.cfg
	kcfg.Banks = 0
	kcfg.SampleClusters = 0
	kcfg.SampleWarmup = 0
	key := profileKey{Cfg: kcfg, Workload: sp.key.Workload, Accesses: sp.accesses, Seed: sp.seed}
	return s.profiles.DoErr(context.Background(), key, func() (*lap.SampleProfile, error) {
		if s.cfg.Checkpoints != nil {
			// A digest-matching persisted profile replaces the functional
			// profiling pass across restarts; store failures degrade to a
			// fresh build inside LoadOrBuildSampleProfile.
			prof, _, err := lap.LoadOrBuildSampleProfile(sp.cfg, sp.mix, sp.accesses, sp.seed, s.cfg.Checkpoints)
			return prof, err
		}
		return lap.BuildSampleProfile(sp.cfg, sp.mix, sp.accesses, sp.seed)
	})
}

// runKind discriminates the workload shapes a runSpec can execute.
type runKind int

const (
	kindMix runKind = iota
	kindThreaded
	kindTrace
)

// runSpec is a fully resolved, validated run: everything needed to
// execute without further lookups (the trace snapshot is taken at
// resolve time, so a concurrent re-upload cannot tear a run).
type runSpec struct {
	key      runKey
	cfg      lap.Config
	policy   lap.Policy
	kind     runKind
	mix      lap.Mix
	bench    lap.Benchmark
	traceAcc []lap.Access
	accesses uint64
	seed     uint64
	// profile supplies the functional profile for sampled runs (nil on
	// exact runs). Set at resolve time to a closure over the server's
	// profile cache, so every policy replaying the same workload shares
	// one profiling pass.
	profile func() (*lap.SampleProfile, error)
	// ckpt is the server's checkpoint store when this run should snapshot
	// and warm-start (exact mix runs only); nil runs cold. cfg's
	// CheckpointEvery carries the spacing.
	ckpt *lap.CheckpointStore
}

// badRequestError marks resolution failures the client caused (400, as
// opposed to internal execution failures). field names the offending
// Config field when the failure was a validation error.
type badRequestError struct {
	msg   string
	field string
}

func (e badRequestError) Error() string { return e.msg }

func badReqf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// policyBadRequest shapes a registry policy-resolution failure into a
// 400 carrying the "Policy" field, matching config validation errors.
func policyBadRequest(err error) error {
	var fe *lap.FieldError
	if errors.As(err, &fe) {
		return badRequestError{msg: err.Error(), field: fe.Field}
	}
	return badReqf("%v", err)
}

// resolveRun validates a RunRequest into an executable spec.
func (s *Server) resolveRun(req RunRequest) (*runSpec, error) {
	cfg, err := lap.ParseConfig(req.Config)
	if err != nil {
		var fe *lap.FieldError
		if errors.As(err, &fe) {
			return nil, badRequestError{msg: err.Error(), field: fe.Field}
		}
		return nil, badReqf("%v", err)
	}

	sampled := false
	switch req.Mode {
	case "", "exact":
		if req.SampleInterval != 0 || req.SampleClusters != 0 || req.SampleWarmup != 0 {
			return nil, badReqf("sample_interval, sample_clusters, and sample_warmup require mode %q", "sampled")
		}
	case "sampled":
		sampled = true
	default:
		return nil, badReqf("unknown mode %q (want %q or %q)", req.Mode, "exact", "sampled")
	}

	// Policy names resolve through the registry: the stored canonical
	// spelling keys the run cache, so case variants of one policy hit
	// the same cached result instead of simulating twice.
	policy := lap.Policy(req.Policy)
	if policy == "" {
		policy = lap.PolicyLAP
	}
	policy, err = lap.ValidatePolicy(cfg, policy)
	if err != nil {
		return nil, policyBadRequest(err)
	}

	accesses := req.Accesses
	if accesses == 0 {
		accesses = defaultAccesses
	}
	if accesses > s.cfg.MaxAccesses {
		return nil, badReqf("accesses %d exceeds the server cap %d", accesses, s.cfg.MaxAccesses)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	selected := 0
	for _, set := range []bool{req.Mix != "", req.Bench != "", req.Trace != ""} {
		if set {
			selected++
		}
	}
	if selected != 1 {
		return nil, badReqf("exactly one of mix, bench, or trace must be set")
	}

	sp := &runSpec{cfg: cfg, policy: policy, accesses: accesses, seed: seed}
	var workload string
	switch {
	case req.Trace != "":
		st, ok := s.store.get(req.Trace)
		if !ok {
			return nil, badReqf("unknown trace %q (upload it via POST /v1/traces?name=%s)", req.Trace, req.Trace)
		}
		sp.kind = kindTrace
		sp.traceAcc = st.accs
		if req.Accesses == 0 {
			sp.accesses = st.records
		}
		// The digest keys the cache to the trace's content, so
		// re-uploading a different trace under the same name cannot
		// recall stale results.
		workload = fmt.Sprintf("trace:%s@%016x", req.Trace, st.digest)
	case req.Bench != "" && req.Threads > 0:
		b, err := lap.BenchmarkByName(req.Bench)
		if err != nil {
			return nil, badReqf("%v", err)
		}
		sp.kind = kindThreaded
		sp.bench = b
		sp.cfg.Cores = req.Threads
		workload = fmt.Sprintf("bench:%s/threads=%d", b.Name, req.Threads)
	case req.Bench != "":
		b, err := lap.BenchmarkByName(req.Bench)
		if err != nil {
			return nil, badReqf("%v", err)
		}
		sp.kind = kindMix
		sp.mix = lap.DuplicateMix(b.Name, cfg.Cores)
		workload = "mix:" + sp.mix.Name + "[" + strings.Join(sp.mix.Members, ",") + "]"
	default:
		mix, err := resolveMix(req.Mix, cfg.Cores)
		if err != nil {
			return nil, badReqf("%v", err)
		}
		sp.kind = kindMix
		sp.mix = mix
		workload = "mix:" + mix.Name + "[" + strings.Join(mix.Members, ",") + "]"
	}

	if sampled {
		if sp.kind != kindMix {
			return nil, badReqf("mode %q supports mix and bench workloads only (threaded and trace runs must be exact)", "sampled")
		}
		sp.cfg.SampleInterval = req.SampleInterval
		if sp.cfg.SampleInterval == 0 {
			sp.cfg.SampleInterval = sp.accesses / 50
			if sp.cfg.SampleInterval < 1000 {
				sp.cfg.SampleInterval = 1000
			}
		}
		sp.cfg.SampleClusters = req.SampleClusters
		sp.cfg.SampleWarmup = req.SampleWarmup
		if sp.cfg.SampleWarmup == 0 {
			sp.cfg.SampleWarmup = 1
		}
		// Re-validate: the sampling knobs have their own ranges, and an
		// explicit out-of-range request must 400 with the field named
		// rather than be silently clamped.
		if err := sp.cfg.Validate(); err != nil {
			var fe *lap.FieldError
			if errors.As(err, &fe) {
				return nil, badRequestError{msg: err.Error(), field: fe.Field}
			}
			return nil, badReqf("%v", err)
		}
		// With SampleInterval now set, the registry's sampled-eligible
		// gate applies: exact-only policies 400 here instead of running
		// through a mode that would silently mis-predict.
		if _, err := lap.ValidatePolicy(sp.cfg, policy); err != nil {
			return nil, policyBadRequest(err)
		}
		sp.profile = func() (*lap.SampleProfile, error) { return s.profileFor(sp) }
	}

	// Exact mix runs pick up the checkpoint store: snapshots every
	// CheckpointEvery accesses, and a re-issued run matching a stored
	// prefix warm-starts instead of simulating from access zero. Results
	// are byte-identical either way.
	if s.cfg.Checkpoints != nil && sp.kind == kindMix && !sampled {
		sp.ckpt = s.cfg.Checkpoints
		if sp.cfg.CheckpointEvery == 0 {
			sp.cfg.CheckpointEvery = s.cfg.CheckpointEvery
		}
	}

	// The Sample* fields ride inside Cfg, so sampled results key — and
	// cache — separately from exact results of the same workload.
	sp.key = runKey{
		Cfg:      sp.cfg,
		Policy:   string(policy),
		Workload: workload,
		Accesses: sp.accesses,
		Seed:     seed,
	}
	// Banks only changes how a run is scheduled, never its result, and
	// CheckpointEvery only changes durability, so requests differing in
	// either coalesce onto one cache entry.
	sp.key.Cfg.Banks = 0
	sp.key.Cfg.CheckpointEvery = 0
	return sp, nil
}

// resolveMix accepts a Table III mix name (case-insensitive) or
// comma-separated benchmark names, one per core.
func resolveMix(arg string, cores int) (lap.Mix, error) {
	for _, m := range lap.TableIII() {
		if strings.EqualFold(m.Name, arg) {
			if len(m.Members) != cores {
				return lap.Mix{}, fmt.Errorf("mix %s has %d members for %d cores", m.Name, len(m.Members), cores)
			}
			return m, nil
		}
	}
	members := strings.Split(arg, ",")
	if len(members) != cores {
		return lap.Mix{}, fmt.Errorf("mix %q has %d members for %d cores", arg, len(members), cores)
	}
	for i, m := range members {
		members[i] = strings.TrimSpace(m)
		if _, err := lap.BenchmarkByName(members[i]); err != nil {
			return lap.Mix{}, err
		}
	}
	return lap.Mix{Name: "custom", Members: members}, nil
}

// cellKey labels the cell in failures and fault-point matches:
// "workload|policy", e.g. "mix:WH1[...]|LAP".
func (sp *runSpec) cellKey() string {
	return sp.key.Workload + "|" + sp.key.Policy
}

// execute runs the simulation. Panics (bad geometry the validator
// missed, zero-instruction traces) are recovered into typed
// *pool.RunError values — the cell's failure domain is itself; a worker
// goroutine can never take the process down. The server.execute fault
// point fires first, so chaos tests can target one cell by key.
//
// tel optionally observes the run per interval (the /v1/events bridge);
// nil is fully off. Checkpointed and sampled executions run through
// entry points without an observation hook and ignore it. Telemetry
// never steers the simulation, so results are byte-identical either
// way.
func (sp *runSpec) execute(tel *lap.Telemetry) (res lap.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = lap.Result{}, pool.Recovered(sp.cellKey(), r)
		}
	}()
	if err := fault.Inject(fault.PointServerRun, sp.cellKey()); err != nil {
		return lap.Result{}, err
	}
	switch sp.kind {
	case kindThreaded:
		return lap.RunThreadedObserved(sp.cfg, sp.policy, sp.bench, sp.accesses, sp.seed, tel)
	case kindTrace:
		srcs := make([]lap.Source, sp.cfg.Cores)
		for i := range srcs {
			srcs[i] = trace.Limit(trace.NewSliceSource(sp.traceAcc), sp.accesses)
		}
		return lap.RunTracesObserved(sp.cfg, sp.policy, srcs, tel)
	default:
		if sp.profile != nil {
			prof, err := sp.profile()
			if err != nil {
				return lap.Result{}, err
			}
			return lap.RunSampledProfile(sp.cfg, sp.policy, prof)
		}
		if sp.ckpt != nil && sp.cfg.CheckpointEvery > 0 {
			return lap.RunResumable(sp.cfg, sp.policy, sp.mix, sp.accesses, sp.seed, sp.ckpt)
		}
		return lap.RunObserved(sp.cfg, sp.policy, sp.mix, sp.accesses, sp.seed, tel)
	}
}

// result shapes a successful run for the wire.
func (sp *runSpec) result(r lap.Result) RunResult {
	rr := RunResult{
		Policy:       string(sp.policy),
		Workload:     sp.key.Workload,
		Accesses:     sp.accesses,
		Seed:         sp.seed,
		MPKI:         r.MPKI(),
		Throughput:   r.Throughput,
		Cycles:       r.Cycles,
		EPIStaticNJ:  r.EPI.StaticNJPerInstr,
		EPIDynamicNJ: r.EPI.DynamicNJPerInstr,
		EPITotalNJ:   r.EPI.Total(),
		TotalNJ:      r.TotalNJ,
		IPCs:         r.IPCs,
	}
	if r.Sample != nil {
		rr.Sampled = true
		rr.Sample = r.Sample
	}
	return rr
}

// errorResult shapes a failed sweep cell for the wire: identity fields
// only, metrics zero, Error set.
func (sp *runSpec) errorResult(kind string, err error) RunResult {
	return RunResult{
		Policy:   string(sp.policy),
		Workload: sp.key.Workload,
		Accesses: sp.accesses,
		Seed:     sp.seed,
		Error:    &CellError{Kind: kind, Message: err.Error()},
	}
}
