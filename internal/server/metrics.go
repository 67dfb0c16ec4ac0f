package server

import (
	"strconv"
	"sync"

	lap "repro"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sample"
)

// serverMetrics is lapserved's first-class observability layer: every
// series GET /metrics exposes. Mutated instruments live here; sampled
// values (queue occupancy, memo residency, breaker position) register as
// scrape-time gauge functions so the hot path never touches the
// registry.
//
// The run-latency histogram is split by provenance — source="computed"
// observes simulation execution time, source="recalled" the time a
// cached answer took to reach the client. The split is load-bearing:
// recalls that climb toward computed latencies mean cache hits are
// queuing behind workers, and a breaker that never opens while
// recalled traffic stays healthy and computed traffic fails is the
// exact signature of the recall/breaker liveness bug this layer was
// built to expose.
type serverMetrics struct {
	reg *obs.Registry

	admitRejected *obs.Counter
	retrySuccess  *obs.Counter
	retryFailure  *obs.Counter
	cellErrors    map[string]*obs.Counter
	latComputed   *obs.Histogram
	latRecalled   *obs.Histogram
	queueWait     *obs.Histogram

	// accessRate is the most recent computed run's simulated-access
	// throughput (accesses simulated per wall-clock second of execution).
	accessRate *obs.Gauge
	// bankOps accumulates each computed run's per-LLC-bank access counts
	// (Result.BankOps). Series materialise lazily because the bank count
	// is a per-run Config knob, not a server constant.
	bankOpsMu sync.Mutex
	bankOps   map[int]*obs.Counter
}

// cellErrorKinds is the closed failure taxonomy of the wire (see
// CellError); every kind pre-registers so series exist at zero.
var cellErrorKinds = []string{"cancelled", "timeout", "fault", "panic", "error"}

// newServerMetrics registers every lapserved series on reg and wires the
// sampled gauges to s. Called once from New, after the server's
// components exist.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		admitRejected: reg.Counter("lapserved_admit_rejected_total",
			"Requests refused with 429 because the job queue was full."),
		cellErrors: map[string]*obs.Counter{},
	}
	m.retrySuccess = reg.Counter("lapserved_retry_attempts_total",
		"Retry attempts by outcome of the retried execution.", obs.L("outcome", "success"))
	m.retryFailure = reg.Counter("lapserved_retry_attempts_total",
		"Retry attempts by outcome of the retried execution.", obs.L("outcome", "failure"))
	for _, kind := range cellErrorKinds {
		m.cellErrors[kind] = reg.Counter("lapserved_cell_errors_total",
			"Failed run/sweep cells by failure kind.", obs.L("kind", kind))
	}
	m.accessRate = reg.Gauge("lapsim_accesses_per_second",
		"Simulated accesses per wall-clock second of the most recent computed run (recalls do not move it).")
	m.bankOps = map[int]*obs.Counter{}
	m.latComputed = reg.Histogram("lapserved_run_duration_seconds",
		"Run latency split by provenance: simulation execution time (computed) vs cached-answer delivery time (recalled).",
		obs.RunLatencyBuckets, obs.L("source", "computed"))
	m.latRecalled = reg.Histogram("lapserved_run_duration_seconds",
		"Run latency split by provenance: simulation execution time (computed) vs cached-answer delivery time (recalled).",
		obs.RunLatencyBuckets, obs.L("source", "recalled"))
	// Queue wait is deliberately a separate series from run duration:
	// admission-to-worker-start time isolates contention for the worker
	// cap from the simulator's own speed.
	m.queueWait = reg.Histogram("lapserved_queue_wait_seconds",
		"Time between a cell's admission and its worker-slot acquisition (queueing delay, not execution).",
		obs.RunLatencyBuckets)

	reg.GaugeFunc("lapserved_queue_depth",
		"Admitted-but-unfinished jobs (bounded queue occupancy).",
		func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc("lapserved_queue_limit",
		"Configured job queue bound (QueueDepth).",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("lapserved_inflight_runs",
		"Simulations executing right now.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("lapserved_trace_store_entries",
		"Uploaded traces resident in the trace store.",
		func() float64 { return float64(s.store.count()) })
	reg.GaugeFunc("lapserved_breaker_state",
		"Circuit breaker position: -1 disabled, 0 closed, 1 open, 2 half-open.",
		s.breaker.stateValue)
	reg.CounterFunc("lapserved_runs_failed_total",
		"Runs that stayed failed after exhausting retries (mirrors /v1/stats failures).",
		s.failures.Load)

	// The breaker reports its own transitions and sheds.
	s.breaker.met = breakerMetrics{
		toOpen: reg.Counter("lapserved_breaker_transitions_total",
			"Breaker state transitions by destination state.", obs.L("to", "open")),
		toHalfOpen: reg.Counter("lapserved_breaker_transitions_total",
			"Breaker state transitions by destination state.", obs.L("to", "half-open")),
		toClosed: reg.Counter("lapserved_breaker_transitions_total",
			"Breaker state transitions by destination state.", obs.L("to", "closed")),
		shed: reg.Counter("lapserved_breaker_shed_total",
			"Requests refused with 503 while the breaker was open or probing."),
	}

	// Memo and pool counters ride along under the lapserved namespace,
	// as do the sampled-simulation series (profile cache activity plus
	// the interval/work-reduction telemetry from internal/sample).
	s.memo.Register(reg, "lapserved_memo")
	s.profiles.Register(reg, "lapserved_profile_memo")
	pool.Register(reg, "lapserved_pool")
	sample.RegisterMetrics(reg, "lapserved")
	// Checkpoint durability counters (lap_checkpoint_*) join the scrape
	// when a store is attached; the store owns the series, the server
	// just exposes them.
	if s.cfg.Checkpoints != nil {
		s.cfg.Checkpoints.Register(reg, "lap")
	}
	return m
}

// recordRun feeds the simulation-throughput series from one computed
// run: res is the run's result, seconds its execution wall-clock.
func (m *serverMetrics) recordRun(res lap.Result, seconds float64) {
	if seconds > 0 {
		// L1Accesses counts every simulated access in the measurement
		// window, across all cores.
		m.accessRate.Set(float64(res.Met.L1Accesses) / seconds)
	}
	if len(res.BankOps) == 0 {
		return
	}
	m.bankOpsMu.Lock()
	defer m.bankOpsMu.Unlock()
	for b, n := range res.BankOps {
		c, ok := m.bankOps[b]
		if !ok {
			c = m.reg.Counter("lapsim_bank_ops_total",
				"LLC accesses routed to each timing-model bank, summed over computed runs (bank utilization profile).",
				obs.L("bank", strconv.Itoa(b)))
			m.bankOps[b] = c
		}
		c.Add(n)
	}
}

// cellError resolves the counter for one failure kind, falling back to
// the generic "error" series for kinds outside the taxonomy.
func (m *serverMetrics) cellError(kind string) *obs.Counter {
	if c, ok := m.cellErrors[kind]; ok {
		return c
	}
	return m.cellErrors["error"]
}
