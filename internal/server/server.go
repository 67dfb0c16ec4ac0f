// Package server implements lapserved, the simulation-as-a-service HTTP
// subsystem: a JSON API over the lap simulator with a bounded job queue,
// request coalescing, and a size-bounded result cache.
//
// Design:
//
//   - Coalescing: run results live in an internal/memo singleflight
//     cache keyed by (config, policy, workload, accesses, seed).
//     Concurrent identical requests share one simulation; later
//     identical requests recall the cached result. The LRU bound keeps
//     the cache from growing without bound on a long-lived server.
//   - Backpressure: a bounded queue admits at most QueueDepth unfinished
//     jobs; requests past the bound get 429 immediately rather than
//     piling up. Admitted jobs wait for one of Jobs worker slots, so at
//     most Jobs simulations execute concurrently.
//   - Determinism: sweeps warm the grid on the PR 1 worker pool
//     (internal/pool) and then collect serially in request order — the
//     response is byte-identical for any jobs value, exactly like
//     lapexp's tables.
//   - Timeouts and drain: every request runs under a RequestTimeout
//     context that bounds queue and coalescing waits (a simulation that
//     already started runs to completion — its result is still useful to
//     cache). SetDraining flips /readyz to 503 and rejects new work so
//     a load balancer can pull the instance before http.Server.Shutdown
//     drains in-flight requests (liveness on /healthz stays 200 to the
//     end — shutting down cleanly is not a reason to be restarted).
//     Mid-sweep, drain lets started cells finish and reports undone
//     cells as cancelled.
//   - Observability: every request logs one structured line (method,
//     route, status, bytes, duration, trace_id); simulation requests
//     are traced (GET /v1/trace/{id}); lifecycle and per-interval
//     telemetry events stream over GET /v1/events (SSE, resumable);
//     rolling-window SLO burn rates and a per-subsystem watchdog feed
//     /metrics; GET /debug/bundle assembles a one-shot diagnostics
//     tarball.
//   - Failure domains: a run that panics is recovered into a typed
//     *pool.RunError — one corrupt simulation cannot take the process
//     (or its sweep) down. Failed runs are never cached; they are
//     retried with exponential backoff and deterministic jitter, and a
//     consecutive-failure circuit breaker sheds load (503 + Retry-After)
//     while the simulator is unhealthy. Sweeps are a partial-result API:
//     failed cells carry a typed error in place, healthy cells are
//     byte-identical to a clean sweep. The internal/fault registry
//     (LAP_FAULTS) drives all of this in chaos tests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	lap "repro"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/journal"
	otrace "repro/internal/obs/trace"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes a Server. The zero value selects production defaults.
type Config struct {
	// Jobs caps concurrently executing simulations (0 = GOMAXPROCS).
	Jobs int
	// QueueDepth bounds admitted-but-unfinished jobs; requests beyond it
	// receive 429 (0 = 256).
	QueueDepth int
	// RequestTimeout bounds each request's queue and coalescing waits
	// (0 = 2 minutes).
	RequestTimeout time.Duration
	// MemoEntries bounds the result cache, LRU-evicting past it
	// (0 = 4096; negative = unbounded).
	MemoEntries int
	// MaxTraceBytes caps one trace upload's body (0 = 64 MiB).
	MaxTraceBytes int64
	// MaxAccesses caps a run's per-core trace length (0 = 4,000,000).
	MaxAccesses uint64
	// RetryMax caps per-run retry attempts after the first execution
	// fails retryably (0 = 2; negative = no retries).
	RetryMax int
	// RetryBackoff is the backoff before the first retry, doubling per
	// attempt with deterministic per-key jitter (0 = 50ms).
	RetryBackoff time.Duration
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive run failures (0 = 5; negative = disabled).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds load before
	// admitting a probe (0 = 5s).
	BreakerCooldown time.Duration
	// Metrics is an optional obs registry to expose on GET /metrics; nil
	// builds a private one (still served — metrics are not optional for a
	// production service, only the registry's ownership is).
	Metrics *obs.Registry
	// TraceRequests bounds the per-request trace log served by GET
	// /v1/trace/{id}, evicting oldest-first (0 = 64; negative disables
	// request tracing entirely — the untraced path costs one nil check).
	// The log keeps each request's spans and renders them when read.
	TraceRequests int
	// TraceDir additionally writes each request's Chrome trace-event JSON
	// to TraceDir/<id>.json; empty writes no files.
	TraceDir string
	// TraceStoreDir durably persists /v1/traces uploads (temp file +
	// atomic rename per upload; reloaded at boot, corrupt files
	// quarantined); empty keeps uploads in memory only. Distinct from
	// TraceDir, which holds Chrome trace-event exports.
	TraceStoreDir string
	// Checkpoints optionally attaches a durable checkpoint store: exact
	// mix runs snapshot machine state every CheckpointEvery accesses, a
	// /v1/run matching a checkpointed prefix warm-starts from the latest
	// valid snapshot, and sampling profiles persist across restarts. The
	// store's counters join /metrics (lap_checkpoint_*) and /v1/stats.
	// Durability failures degrade to cold starts, never run failures.
	Checkpoints *lap.CheckpointStore
	// CheckpointEvery is the snapshot spacing in accesses, summed over
	// cores (0 = 1,000,000 when a store is attached). It is normalized
	// out of cache keys: checkpointed and plain runs coalesce.
	CheckpointEvery uint64
	// Logger receives one structured line per request (method, path,
	// status, duration, trace/span IDs); nil logs nothing.
	Logger *slog.Logger
	// JournalCapacity bounds the operational event ring behind GET
	// /v1/events and the diagnostics bundle (0 = journal.DefaultCapacity;
	// negative disables the journal entirely — /v1/events then answers
	// 404 and lifecycle events are not recorded).
	JournalCapacity int
	// SLO tunes the rolling-window request-objective tracker surfaced as
	// lapserved_slo_burn_rate and the /v1/stats slo block. Zero fields
	// take health.SLOConfig defaults.
	SLO health.SLOConfig
	// WatchdogInterval is the background probe period for the
	// per-subsystem watchdog (queue stalled, run over deadline budget,
	// checkpoint store erroring, breaker open). 0 runs no background
	// goroutine — probes then run on each GET /readyz — so unit tests
	// and short-lived servers stay goroutine-free; lapserved passes a
	// real interval. Stop the loop with Close.
	WatchdogInterval time.Duration
}

const (
	defaultQueueDepth       = 256
	defaultTimeout          = 2 * time.Minute
	defaultMemoEntries      = 4096
	defaultMaxTraceBytes    = 64 << 20
	defaultMaxAccesses      = 4_000_000
	defaultAccesses         = 400_000
	latencyWindow           = 512
	defaultRetryMax         = 2
	defaultRetryBackoff     = 50 * time.Millisecond
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 5 * time.Second
	defaultTraceRequests    = 64
	defaultCheckpointEvery  = 1_000_000
	// Profiles carry cache-hierarchy snapshots (~24 MB each at the
	// paper's default geometry — see sample.Profile), so the profile
	// cache is kept much smaller than the result memo: 8 entries bound
	// it near 200 MB while still covering a sweep's mix set.
	defaultProfileEntries = 8
)

// Server is the lapserved HTTP core. Construct with New; serve
// Handler() with net/http.
type Server struct {
	cfg      Config
	memo     *memo.Cache[runKey, lap.Result]
	profiles *memo.Cache[profileKey, *lap.SampleProfile]
	store    *traceStore
	traces   *traceLog // per-request trace exports; nil when disabled
	sem      chan struct{}
	breaker  *breaker
	journal  *journal.Journal   // operational event ring; nil when disabled
	slo      *health.SLOTracker // run/sweep request objectives
	watchdog *health.Watchdog   // per-subsystem degradation probes
	running  *runRegistry       // in-flight executions, for the deadline probe
	started  time.Time

	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	failures atomic.Uint64 // runs still failed after retries
	retries  atomic.Uint64 // retry attempts made
	reqSeq   atomic.Uint64 // request/trace ID counter

	met *serverMetrics
	lat latRing
	mux *http.ServeMux
}

// New returns a Server with cfg's zero fields defaulted.
func New(cfg Config) *Server {
	cfg.Jobs = pool.Workers(cfg.Jobs)
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = defaultTimeout
	}
	if cfg.MemoEntries == 0 {
		cfg.MemoEntries = defaultMemoEntries
	}
	if cfg.MemoEntries < 0 {
		cfg.MemoEntries = 0 // unbounded
	}
	if cfg.MaxTraceBytes <= 0 {
		cfg.MaxTraceBytes = defaultMaxTraceBytes
	}
	if cfg.MaxAccesses == 0 {
		cfg.MaxAccesses = defaultMaxAccesses
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = defaultRetryMax
	}
	if cfg.RetryMax < 0 {
		cfg.RetryMax = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = defaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = defaultBreakerCooldown
	}
	if cfg.Checkpoints != nil && cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	store, err := newTraceStore(cfg.TraceStoreDir)
	if err != nil {
		// An unusable trace directory degrades to a memory-only store:
		// the service stays up, uploads just stop surviving restarts.
		if cfg.Logger != nil {
			cfg.Logger.Error("trace store unavailable; uploads are memory-only", "err", err)
		}
		store, _ = newTraceStore("")
	}
	s := &Server{
		cfg:      cfg,
		memo:     memo.New[runKey, lap.Result](cfg.MemoEntries),
		profiles: memo.New[profileKey, *lap.SampleProfile](defaultProfileEntries),
		store:    store,
		sem:      make(chan struct{}, cfg.Jobs),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		slo:      health.NewSLO(cfg.SLO),
		running:  newRunRegistry(),
		started:  time.Now(),
		lat:      latRing{buf: make([]float64, 0, latencyWindow)},
	}
	if cfg.JournalCapacity >= 0 {
		s.journal = journal.New(cfg.JournalCapacity, cfg.Logger)
	}
	if cfg.TraceRequests >= 0 {
		n := cfg.TraceRequests
		if n == 0 {
			n = defaultTraceRequests
		}
		s.traces = newTraceLog(n)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newServerMetrics(reg, s)
	health.RegisterRuntime(reg)
	s.slo.Register(reg, "lapserved")
	s.watchdog = s.newWatchdog()
	s.watchdog.Register(reg, "lapserved")
	if cfg.WatchdogInterval > 0 {
		s.watchdog.Start()
	}
	// Journal counters ride the registry too (Snapshot is nil-safe, so a
	// disabled journal just exports zeros): emitted volume, the two drop
	// paths, and how many /v1/events streams are live right now.
	reg.CounterFunc("lapserved_events_emitted_total",
		"Operational events emitted to the journal.",
		func() uint64 { return s.journal.Snapshot().Emitted })
	reg.CounterFunc("lapserved_events_dropped_total",
		"Events lost to the bounded ring or slow subscriber queues.",
		func() uint64 {
			st := s.journal.Snapshot()
			return st.RingDropped + st.SubDropped
		})
	reg.GaugeFunc("lapserved_event_subscribers",
		"Live /v1/events subscribers.",
		func() float64 { return float64(s.journal.Snapshot().Subscribers) })

	// Lifecycle sources feed the journal without their packages knowing
	// about it: the breaker reports transitions, the checkpoint store its
	// durability operations, the memo its evictions. All three hooks are
	// nil-safe no-ops when the journal is disabled (Emit on nil records
	// nothing), so the wiring is unconditional.
	s.breaker.onTransition = func(to string) {
		s.journal.Emit(journal.Event{Kind: "breaker.transition", Fields: journal.F("to", to)})
	}
	if cfg.Checkpoints != nil {
		cfg.Checkpoints.SetObserver(func(op, key, detail string, err error) {
			e := journal.Event{Kind: "checkpoint." + op, Run: key}
			if detail != "" {
				e.Fields = journal.F("detail", detail)
			}
			if err != nil {
				e.Msg = err.Error()
			}
			s.journal.Emit(e)
		})
	}
	s.memo.SetEvictObserver(func(k runKey) {
		s.journal.Emit(journal.Event{Kind: "memo.evict", Run: k.Workload + "|" + k.Policy})
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /debug/bundle", s.handleBundle)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	return s
}

// Handler returns the server's HTTP handler: the router wrapped with
// per-request tracing and structured logging (see instrument).
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// Metrics returns the obs registry behind GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Journal returns the operational event journal behind GET /v1/events
// (nil when Config.JournalCapacity was negative), so the binary hosting
// the server can route its own lifecycle — process fault hits, contained
// pool panics, shutdown phases — into the same stream.
func (s *Server) Journal() *journal.Journal { return s.journal }

// Close releases the server's background resources: the watchdog loop
// stops and every live event subscriber is closed (each drains its
// queued events, then its SSE stream ends). The server itself remains
// usable for tests that keep serving after Close; production callers
// Close during shutdown, after SetDraining(true) and before
// http.Server.Shutdown so open /v1/events streams cannot hold the
// drain open.
func (s *Server) Close() {
	s.watchdog.Stop()
	s.journal.CloseSubscribers()
}

// SetDraining flips the server into (or out of) drain mode: /readyz
// answers 503 so load balancers stop routing here, and new simulation
// work is refused while in-flight requests finish. Liveness (/healthz)
// stays 200 — the process is healthy, just leaving rotation. Each
// transition lands in the event journal as drain.begin/drain.end.
func (s *Server) SetDraining(d bool) {
	if s.draining.Swap(d) == d {
		return
	}
	kind := "drain.end"
	if d {
		kind = "drain.begin"
	}
	s.journal.Emit(journal.Event{Kind: kind, Fields: journal.F(
		"queued", s.queued.Load(), "in_flight", s.inflight.Load())})
}

// admit reserves n slots in the bounded job queue, reporting false when
// the queue cannot take them (the caller answers 429).
func (s *Server) admit(n int) bool {
	for {
		cur := s.queued.Load()
		if cur+int64(n) > int64(s.cfg.QueueDepth) {
			return false
		}
		if s.queued.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// release returns n queue slots.
func (s *Server) release(n int) { s.queued.Add(int64(-n)) }

// errDraining marks a run that would have *started* during drain. Cells
// already executing (or cached) still deliver — drain means "finish what
// you started, start nothing new".
var errDraining = errors.New("server: draining; run not started")

// runCell executes (or recalls) one resolved run under the worker cap,
// reporting provenance: computed is true when THIS call executed the
// simulation (successfully or not), false when the result was recalled
// from the memo or shared from another caller's in-flight execution.
//
// A key whose result is already cached is served by a completed-entry
// fast path (memo.Peek) *before* the worker-semaphore acquire: a cache
// hit executes nothing, so making it wait behind running simulations —
// and burn a slot doing no work — would be pure queuing delay. Only
// requests that may actually compute contend for slots. The latch wait
// for in-flight duplicates is bounded by ctx, and failed runs are never
// cached (memo.DoErrStat), so a retry recomputes.
func (s *Server) runCell(ctx context.Context, sp *runSpec) (lap.Result, bool, error) {
	start := time.Now()
	_, psp := otrace.Start(ctx, "memo.peek", otrace.Str("cell", sp.cellKey()))
	res, ok := s.memo.Peek(sp.key)
	if psp != nil {
		psp.SetAttr(otrace.Bool("hit", ok))
		psp.End()
	}
	if ok {
		s.met.latRecalled.Observe(time.Since(start).Seconds())
		return res, false, nil
	}
	// Queue wait: admission happened in the handler; this is the gap
	// until a worker slot frees (zero when a slot is idle). Separate
	// histogram from run latency — climbing queue waits with flat run
	// latency means the worker cap, not the simulator, is the bottleneck.
	qstart := time.Now()
	_, qsp := otrace.Start(ctx, "queue_wait")
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		if qsp != nil {
			qsp.SetAttr(otrace.Bool("cancelled", true))
			qsp.End()
		}
		s.met.queueWait.Observe(time.Since(qstart).Seconds())
		return lap.Result{}, false, ctx.Err()
	}
	qsp.End()
	s.met.queueWait.Observe(time.Since(qstart).Seconds())
	defer func() { <-s.sem }()
	res, computed, err := s.memo.DoErrStat(ctx, sp.key, func() (lap.Result, error) {
		if s.draining.Load() {
			return lap.Result{}, errDraining
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		s.running.add(sp.cellKey())
		defer s.running.remove(sp.cellKey())
		tid := traceIDFrom(ctx)
		s.journal.Emit(journal.Event{Kind: "run.start", Run: sp.cellKey(), Trace: tid,
			Fields: journal.F("accesses", sp.accesses, "seed", sp.seed)})
		execStart := time.Now()
		_, esp := otrace.Start(ctx, "execute", otrace.Str("cell", sp.cellKey()))
		res, err := sp.execute(s.runTelemetry(sp, tid))
		if esp != nil {
			esp.SetAttr(otrace.Bool("failed", err != nil))
			esp.End()
		}
		if err != nil {
			s.journal.Emit(journal.Event{Kind: "run.failed", Run: sp.cellKey(), Trace: tid,
				Msg: err.Error(), Fields: journal.F("kind", errKind(err))})
			return lap.Result{}, err
		}
		d := time.Since(execStart).Seconds()
		s.lat.add(d)
		s.met.latComputed.Observe(d)
		s.met.recordRun(res, d)
		s.journal.Emit(journal.Event{Kind: "run.finish", Run: sp.cellKey(), Trace: tid,
			Fields: journal.F("duration_ms", d*1000, "cycles", res.Cycles, "mpki", res.MPKI())})
		return res, nil
	})
	if err == nil && !computed {
		// Lost the Peek race to a completing duplicate: still a recall.
		s.met.latRecalled.Observe(time.Since(start).Seconds())
	}
	return res, computed, err
}

// runCellRetry is runCell under the resilience policy: retryable
// failures are re-executed up to RetryMax times with exponential backoff
// and deterministic jitter, the breaker hears about conclusive
// *executions* only, and the failure counters advance when a run stays
// failed.
//
// Provenance gates the breaker. A memo recall runs no simulation: while
// the simulator is broken, a stream of cache hits says nothing about its
// health, so recalled successes must not reset the consecutive-failure
// streak (they only release a half-open probe slot, like any other
// inconclusive outcome). Likewise an error merely shared from another
// caller's in-flight execution is that execution's evidence, not a
// second data point.
func (s *Server) runCellRetry(ctx context.Context, sp *runSpec) (lap.Result, error) {
	var res lap.Result
	var computed bool
	var err error
	for attempt := 0; ; attempt++ {
		actx, asp := otrace.Start(ctx, "attempt",
			otrace.Str("cell", sp.cellKey()), otrace.Int("n", int64(attempt)))
		res, computed, err = s.runCell(actx, sp)
		if asp != nil {
			asp.SetAttr(otrace.Bool("computed", computed), otrace.Bool("failed", err != nil))
			asp.End()
		}
		if attempt > 0 {
			if err == nil {
				s.met.retrySuccess.Inc()
			} else {
				s.met.retryFailure.Inc()
			}
		}
		if err == nil {
			if computed {
				s.breaker.success()
			} else {
				s.breaker.probeDone()
			}
			return res, nil
		}
		if !retryable(err) || attempt >= s.cfg.RetryMax {
			break
		}
		s.retries.Add(1)
		select {
		case <-time.After(backoffDelay(s.cfg.RetryBackoff, attempt, sp.cellKey())):
		case <-ctx.Done():
			s.breaker.probeDone()
			return lap.Result{}, ctx.Err()
		}
	}
	if retryable(err) {
		// A conclusive failure (fault, panic, simulation error) — not a
		// cancellation, which says nothing about the simulator's health.
		s.failures.Add(1)
		if computed {
			s.breaker.failure()
		} else {
			s.breaker.probeDone()
		}
	} else {
		s.breaker.probeDone()
	}
	return lap.Result{}, err
}

// retryable reports whether re-executing could help: cancellation,
// deadline, and drain refusals are terminal for this request.
func retryable(err error) bool {
	return !errors.Is(err, errDraining) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// backoffDelay grows exponentially from base per attempt and adds up to
// 50% jitter derived deterministically from the cell key, spreading
// concurrent retries without nondeterministic randomness.
func backoffDelay(base time.Duration, attempt int, key string) time.Duration {
	if attempt > 6 {
		attempt = 6 // cap the exponent; RetryMax bounds attempts anyway
	}
	d := base << uint(attempt)
	h := fnv.New64a()
	io.WriteString(h, key)
	io.WriteString(h, strconv.Itoa(attempt))
	return d + time.Duration(h.Sum64()%uint64(d/2+1))
}

// errKind maps a run failure onto the wire taxonomy (see CellError).
func errKind(err error) string {
	var inj *fault.InjectedError
	var re *pool.RunError
	switch {
	case errors.Is(err, errDraining), errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.As(err, &inj):
		return "fault"
	case errors.As(err, &re):
		return "panic"
	}
	return "error"
}

// handleHealthz reports liveness: always 200 while the process can
// serve HTTP at all — draining changes readiness (/readyz), not
// liveness, so an orchestrator never kills an instance for the crime of
// shutting down cleanly. The body carries the load-bearing health
// signals — breaker position, queue occupancy against its bound,
// in-flight runs — so an operator's first curl answers "is it sick, and
// how" without a metrics scrape.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	bs := s.breaker.snapshot()
	writeJSON(w, http.StatusOK, HealthzResponse{
		Status:     status,
		Breaker:    bs.state,
		QueueDepth: s.queued.Load(),
		QueueLimit: s.cfg.QueueDepth,
		InFlight:   s.inflight.Load(),
	})
}

// handleReadyz reports readiness: whether this instance should receive
// new traffic. Unready (503) from the moment drain begins and while the
// circuit breaker is open — both mean "route elsewhere", neither means
// "restart me" (that is /healthz's call). The watchdog runs one probe
// pass first, so readiness checks double as the degradation sampler on
// servers without a background watchdog loop; degraded subsystems are
// reported but only drain and an open breaker gate readiness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.watchdog.RunOnce()
	resp := ReadyzResponse{Ready: true}
	if s.draining.Load() {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "draining")
	}
	if bs := s.breaker.snapshot(); bs.state == "open" {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, "circuit breaker open")
	}
	for sub, st := range s.watchdog.Snapshot() {
		if !st.Healthy {
			resp.Degraded = append(resp.Degraded, sub+": "+st.Detail)
		}
	}
	sort.Strings(resp.Degraded)
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// statsSnapshot assembles the /v1/stats payload; the diagnostics bundle
// reuses it so the two views can never drift.
func (s *Server) statsSnapshot() StatsResponse {
	ms := s.memo.Stats()
	sample := s.lat.snapshot()
	sum := stats.Summarize(sample)
	bs := s.breaker.snapshot()
	var ck *CheckpointStats
	if s.cfg.Checkpoints != nil {
		m := s.cfg.Checkpoints.Metrics()
		ck = &CheckpointStats{
			Writes:          m.Writes(),
			WriteErrors:     m.WriteErrors(),
			Restores:        m.Restores(),
			IntervalsSaved:  m.IntervalsSaved(),
			Corrupt:         m.Corrupt(),
			VersionMismatch: m.VersionMismatches(),
			BytesWritten:    m.BytesWritten(),
			BytesRead:       m.BytesRead(),
		}
	}
	var ev *journal.Stats
	if s.journal != nil {
		st := s.journal.Snapshot()
		ev = &st
	}
	return StatsResponse{
		Computed:          ms.Computed,
		Recalled:          ms.Recalled,
		Evicted:           ms.Evicted,
		MemoEntries:       s.memo.Len(),
		Queued:            s.queued.Load(),
		InFlight:          s.inflight.Load(),
		Traces:            s.store.count(),
		RunLatencyP50Sec:  sum.Median(),
		RunLatencyP95Sec:  sum.Quantile(0.95),
		RunLatencySamples: len(sample),
		MemoFailed:        ms.Failed,
		Failures:          s.failures.Load(),
		Retries:           s.retries.Load(),
		BreakerState:      bs.state,
		BreakerOpens:      bs.opens,
		BreakerShed:       bs.shed,
		Checkpoint:        ck,
		Events:            ev,
		SLO:               s.sloStats(),
	}
}

// sloStats shapes the SLO tracker's rolling windows for the wire.
func (s *Server) sloStats() *SLOStats {
	cfg := s.slo.Config()
	out := &SLOStats{
		Objective:        cfg.Objective,
		LatencyObjective: cfg.LatencyObjective,
		LatencyTargetSec: cfg.LatencyTarget.Seconds(),
	}
	for _, w := range s.slo.Windows() {
		out.Windows = append(out.Windows, SLOWindow{
			Window:           w.Window,
			Total:            w.Total,
			Errors:           w.Errors,
			Slow:             w.Slow,
			SuccessRate:      w.SuccessRate,
			AvailabilityBurn: w.AvailabilityBurn,
			LatencyBurn:      w.LatencyBurn,
		})
	}
	return out
}

// handleStats reports the memo counters, queue occupancy, run latency
// quantiles, SLO windows, and journal counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleRun serves one simulation, coalescing identical requests.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req RunRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	sp, err := s.resolveRun(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if !s.admit(1) {
		s.met.admitRejected.Inc()
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "job queue full; retry later"})
		return
	}
	defer s.release(1)
	if s.refuseBreaker(w) {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	res, err := s.runCellRetry(ctx, sp)
	if err != nil {
		s.met.cellError(errKind(err)).Inc()
		writeRunError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sp.result(res))
}

// handleSweep serves a (mix × policy) grid: resolve every cell up front,
// admit the whole batch against the queue bound, warm the grid on the
// worker pool, then collect serially in request order so the response
// bytes are independent of the fan-out.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	// The default policy set is the registry's configuration-aware "all"
	// expansion: hybrid-only policies drop out on uniform LLCs and
	// exact-only policies drop out of sampled sweeps, each skip reported
	// in the response rather than silently running (or 400ing the grid).
	var skipped []string
	if len(req.Policies) == 0 {
		cfg, err := lap.ParseConfig(req.Config)
		if err != nil {
			writeError(w, policyBadRequest(err))
			return
		}
		if req.Mode == "sampled" && cfg.SampleInterval == 0 {
			// Any non-zero interval engages the sampled-eligibility
			// gate; resolveRun derives the real interval per cell.
			cfg.SampleInterval = 1000
		}
		policies, notices, err := lap.ResolvePolicies(cfg, "all")
		if err != nil {
			writeError(w, policyBadRequest(err))
			return
		}
		for _, p := range policies {
			req.Policies = append(req.Policies, string(p))
		}
		skipped = notices
	}
	if len(req.Mixes) == 0 {
		for _, m := range lap.TableIII() {
			req.Mixes = append(req.Mixes, m.Name)
		}
	}

	specs := make([]*runSpec, 0, len(req.Mixes)*len(req.Policies))
	for _, mix := range req.Mixes {
		for _, pol := range req.Policies {
			sp, err := s.resolveRun(RunRequest{
				Config:         req.Config,
				Policy:         pol,
				Mix:            mix,
				Accesses:       req.Accesses,
				Seed:           req.Seed,
				Mode:           req.Mode,
				SampleInterval: req.SampleInterval,
				SampleClusters: req.SampleClusters,
				SampleWarmup:   req.SampleWarmup,
			})
			if err != nil {
				writeError(w, err)
				return
			}
			specs = append(specs, sp)
		}
	}
	if len(specs) == 0 {
		writeJSON(w, http.StatusOK, SweepResponse{Results: []RunResult{}, Skipped: skipped})
		return
	}
	if !s.admit(len(specs)) {
		s.met.admitRejected.Inc()
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: fmt.Sprintf("job queue cannot take %d sweep cells; retry later", len(specs)),
		})
		return
	}
	defer s.release(len(specs))
	if s.refuseBreaker(w) {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	sweepStart := time.Now()
	s.journal.Emit(journal.Event{Kind: "sweep.start", Trace: traceIDFrom(ctx),
		Fields: journal.F("cells", len(specs), "mixes", len(req.Mixes), "policies", len(req.Policies))})

	// Warm pass: fan the grid onto the pool. Duplicate cells coalesce in
	// the memo, failures surface during collection (a failed warm run is
	// never cached, so the collection pass recomputes and retries it),
	// and jobs=1 skips the pass entirely (the serial collection below
	// computes everything), mirroring the lapexp scheduler.
	jobs := req.Jobs
	if jobs <= 0 || jobs > s.cfg.Jobs {
		jobs = s.cfg.Jobs
	}
	if jobs > 1 {
		tasks := make([]pool.Task, len(specs))
		for i, sp := range specs {
			sp := sp
			tasks[i] = pool.Task{Key: sp.cellKey(), Ctx: ctx, Do: func() error {
				_, _, err := s.runCell(ctx, sp)
				return err
			}}
		}
		pool.Run(jobs, tasks)
	}

	// Collection: a sweep is a partial-result API after admission. A cell
	// that stays failed after retries is reported in place with a typed
	// error; the surviving cells carry their results byte-identically to
	// a clean sweep.
	resp := SweepResponse{Results: make([]RunResult, 0, len(specs)), Skipped: skipped}
	for _, sp := range specs {
		res, err := s.runCellRetry(ctx, sp)
		if err != nil {
			kind := errKind(err)
			s.met.cellError(kind).Inc()
			if kind == "cancelled" || kind == "timeout" {
				resp.Cancelled++
			} else {
				resp.Failed++
			}
			resp.Results = append(resp.Results, sp.errorResult(kind, err))
			continue
		}
		resp.Results = append(resp.Results, sp.result(res))
	}
	s.journal.Emit(journal.Event{Kind: "sweep.finish", Trace: traceIDFrom(ctx),
		Fields: journal.F("cells", len(specs), "failed", resp.Failed, "cancelled", resp.Cancelled,
			"duration_ms", time.Since(sweepStart).Seconds()*1000)})
	writeJSON(w, http.StatusOK, resp)
}

// handleTraceUpload stores a binary trace (plain or gzipped; the reader
// sniffs) under ?name=, decoded through internal/trace's codec.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	name := r.URL.Query().Get("name")
	if !traceNameRE.MatchString(name) {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: "trace name must match " + traceNameRE.String() + " (pass ?name=...)",
		})
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	tr, err := trace.NewAutoReader(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	accs := trace.Drain(tr)
	if err := tr.Err(); err != nil {
		status := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	if len(accs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "trace has no records"})
		return
	}
	st, err := s.store.put(name, accs)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.journal.Emit(journal.Event{Kind: "trace.upload", Trace: traceIDFrom(r.Context()),
		Fields: journal.F("name", name, "records", st.records,
			"digest", fmt.Sprintf("%016x", st.digest))})
	writeJSON(w, http.StatusOK, TraceUploadResponse{
		Name:    name,
		Records: st.records,
		Digest:  fmt.Sprintf("%016x", st.digest),
	})
}

// refuseDraining answers 503 for new work while draining.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return true
	}
	return false
}

// refuseBreaker answers 503 + Retry-After while the circuit breaker
// sheds load.
func (s *Server) refuseBreaker(w http.ResponseWriter) bool {
	ok, retryAfter := s.breaker.allow()
	if ok {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)+1))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: "circuit breaker open; simulations are failing, retry later",
		Kind:  "breaker",
	})
	return true
}

// decodeJSON reads a bounded body holding exactly one JSON value
// (trailing whitespace allowed), answering 400 itself on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, tokErr := dec.Token(); tokErr != io.EOF {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error()})
		return err
	}
	return nil
}

// writeError maps resolution errors to status codes; validation
// failures carry the offending Config field name.
func writeError(w http.ResponseWriter, err error) {
	var bad badRequestError
	if errors.As(err, &bad) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: bad.msg, Field: bad.field})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
}

// writeRunError maps a run failure onto a status: drain refusal → 503,
// deadline → 504, client cancel → 499 (nginx's convention; net/http has
// no name for it), anything conclusive → 500 with its taxonomy kind.
func writeRunError(w http.ResponseWriter, err error) {
	kind := errKind(err)
	switch {
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining", Kind: kind})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "request timed out in queue", Kind: kind})
	case errors.Is(err, context.Canceled):
		writeJSON(w, 499, errorResponse{Error: "request cancelled", Kind: kind})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Kind: kind})
	}
}

// writeJSON renders one response. Marshal of our wire types cannot fail;
// a failure here is a programming error worth a 500 over a panic.
func writeJSON(w http.ResponseWriter, status int, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// runTelemetry builds the per-interval event bridge for one execution:
// nil — telemetry fully off, the simulator pays one nil check per access
// — unless a live /v1/events subscriber exists (one atomic load decides,
// see journal.Streaming). Checkpointed and sampled runs execute through
// entry points without an observation hook and stream lifecycle events
// only. Telemetry observes and never steers, so results stay
// byte-identical with or without subscribers — the obs-smoke gate
// byte-compares exactly this.
func (s *Server) runTelemetry(sp *runSpec, traceID string) *sim.Telemetry {
	if !s.journal.Streaming() || sp.ckpt != nil || sp.profile != nil {
		return nil
	}
	// ~16 windows per run, summed over cores, floored so tiny runs emit
	// at most a handful of events rather than one per access.
	interval := sp.accesses * uint64(sp.cfg.Cores) / 16
	if interval < 1000 {
		interval = 1000
	}
	return sim.JournalTelemetry(s.journal, sp.cellKey(), traceID, interval)
}

// runRegistry tracks in-flight executions by cell key so the watchdog's
// deadline probe can name the run that is blowing its budget.
type runRegistry struct {
	mu sync.Mutex
	m  map[string]time.Time
}

func newRunRegistry() *runRegistry {
	return &runRegistry{m: map[string]time.Time{}}
}

func (r *runRegistry) add(key string) {
	r.mu.Lock()
	if _, dup := r.m[key]; !dup {
		r.m[key] = time.Now()
	}
	r.mu.Unlock()
}

func (r *runRegistry) remove(key string) {
	r.mu.Lock()
	delete(r.m, key)
	r.mu.Unlock()
}

// oldest returns the longest-running execution's key and start time.
func (r *runRegistry) oldest() (string, time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var key string
	var at time.Time
	for k, t := range r.m {
		if key == "" || t.Before(at) {
			key, at = k, t
		}
	}
	return key, at, key != ""
}

// newWatchdog builds the per-subsystem degradation probes: a full job
// queue (stalled intake), an execution past the request deadline budget
// (a run the timeout machinery lost track of, or a pathological cell),
// a checkpoint store accumulating write errors, and an open breaker.
// Transitions are edge-triggered into the journal and flip the
// lapserved_watchdog_healthy{subsystem=...} gauges.
func (s *Server) newWatchdog() *health.Watchdog {
	w := health.NewWatchdog(s.cfg.WatchdogInterval)
	w.Add("queue", func() health.Status {
		if q := s.queued.Load(); q >= int64(s.cfg.QueueDepth) {
			return health.Degraded(fmt.Sprintf("job queue full (%d/%d)", q, s.cfg.QueueDepth))
		}
		return health.OK()
	})
	w.Add("deadline", func() health.Status {
		if key, at, ok := s.running.oldest(); ok {
			if age := time.Since(at); age > s.cfg.RequestTimeout {
				return health.Degraded(fmt.Sprintf("run %s executing for %s (budget %s)",
					key, age.Round(time.Millisecond), s.cfg.RequestTimeout))
			}
		}
		return health.OK()
	})
	w.Add("breaker", func() health.Status {
		if bs := s.breaker.snapshot(); bs.state == "open" {
			return health.Degraded("circuit breaker open")
		}
		return health.OK()
	})
	if s.cfg.Checkpoints != nil {
		var lastErrs uint64
		var mu sync.Mutex
		w.Add("checkpoint", func() health.Status {
			errs := s.cfg.Checkpoints.Metrics().WriteErrors()
			mu.Lock()
			delta := errs - lastErrs
			lastErrs = errs
			mu.Unlock()
			if delta > 0 {
				return health.Degraded(fmt.Sprintf("%d checkpoint write error(s) since last probe", delta))
			}
			return health.OK()
		})
	}
	w.OnTransition(func(subsystem string, healthy bool, detail string) {
		s.journal.Emit(journal.Event{Kind: "watchdog.transition", Msg: detail,
			Fields: journal.F("subsystem", subsystem, "healthy", healthy)})
	})
	return w
}

// latRing keeps the most recent computed-run latencies for the stats
// quantiles.
type latRing struct {
	mu  sync.Mutex
	buf []float64
	pos int
}

func (l *latRing) add(sec float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, sec)
		return
	}
	l.buf[l.pos] = sec
	l.pos = (l.pos + 1) % len(l.buf)
}

func (l *latRing) snapshot() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.buf...)
}
