// Command lapserved serves simulations over HTTP: POST /v1/run for one
// simulation, POST /v1/sweep for a (mix × policy) grid fanned out on a
// worker pool, POST /v1/traces to upload binary traces, plus /healthz
// and /v1/stats. Identical concurrent requests coalesce onto a single
// simulation and completed results are recalled from an LRU-bounded
// cache, so a fleet of clients hammering the same grid costs one pass.
//
// Examples:
//
//	lapserved -addr :8080
//	curl -s localhost:8080/v1/run -d '{"mix":"WH1","policy":"LAP"}'
//	curl -s localhost:8080/v1/sweep -d '{"jobs":8}'
//	gzip -c trace.bin | curl -s --data-binary @- 'localhost:8080/v1/traces?name=loop'
//	curl -s localhost:8080/v1/stats
//
// SIGINT/SIGTERM drain gracefully: /readyz flips to 503 so balancers
// stop routing here (liveness on /healthz stays 200 — a draining
// process must not be restarted), new work is refused, open /v1/events
// streams are closed after delivering their queued events, and
// in-flight requests get -drain-timeout to finish.
//
// Live observability rides alongside /metrics: GET /v1/events streams
// the server's events (run lifecycle, per-interval telemetry,
// breaker/checkpoint/watchdog transitions, fault hits, contained pool
// panics) as Server-Sent Events with Last-Event-ID resume and
// ?kind=/?run= filters; each frame's data is the trace JSONL record of
// one instant event. A per-subsystem watchdog (-watchdog-interval)
// feeds /metrics and /readyz. GET /debug/bundle downloads one tar.gz
// with everything a support engineer asks for first: metrics, recent
// events and traces, resolved config, stats, and goroutine/heap
// profiles.
//
// -checkpoint-dir attaches a durable checkpoint store: exact mix runs
// snapshot machine state every -checkpoint-every accesses, and a
// re-issued run after a crash (even SIGKILL) warm-starts from the
// latest valid snapshot — at most one checkpoint interval of work is
// lost per started run, and results are byte-identical to an
// uninterrupted run. -trace-store-dir persists /v1/traces uploads
// across restarts through the same temp-file + atomic-rename
// discipline. Corrupt or stale files are quarantined and counted
// (lap_checkpoint_corrupt_total); durability failures degrade to cold
// starts, never request failures.
//
// Failed runs are never cached; conclusive failures are retried with
// exponential backoff (-retry-max, -retry-backoff), and a streak of
// -breaker-threshold consecutive failures opens a circuit breaker that
// sheds simulation requests with 503 + Retry-After until
// -breaker-cooldown passes. The LAP_FAULTS environment variable arms
// internal/fault injection points for chaos runs.
//
// Every simulation request is traced: the response carries an X-Trace-Id
// header and GET /v1/trace/{id} returns that request's Chrome
// trace-event timeline (admission, queue wait, memo lookup, retry
// attempts, execution). -trace-requests bounds the in-memory trace
// store (negative disables tracing), whose traces are rendered when
// read; -trace-dir additionally writes each trace to disk as its
// request ends. Requests are logged as JSON lines on stderr with the
// matching trace_id; events are not logged.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; mounted only with -pprof
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	lap "repro"
	"repro/internal/fault"
	otrace "repro/internal/obs/trace"
	"repro/internal/pool"
	"repro/internal/server"
)

func main() {
	if n, err := fault.ArmFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "lapserved: %s: %v\n", fault.EnvVar, err)
		os.Exit(1)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "lapserved: [%d fault spec(s) armed from %s]\n", n, fault.EnvVar)
	}
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrently executing simulations")
	queueDepth := flag.Int("queue-depth", 256, "max admitted-but-unfinished jobs before 429")
	timeout := flag.Duration("request-timeout", 2*time.Minute, "per-request queue+run deadline")
	memoEntries := flag.Int("memo-entries", 4096, "result cache bound (LRU; negative = unbounded)")
	maxAccesses := flag.Uint64("max-accesses", 4_000_000, "per-core trace length cap for one run")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight requests")
	retryMax := flag.Int("retry-max", 2, "retries per failed run (negative = none)")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base retry backoff (doubles per attempt, plus jitter)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that open the circuit breaker (negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker shed window before a half-open probe")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceRequests := flag.Int("trace-requests", 0, "recent per-request traces kept for GET /v1/trace/{id} (0 = 64; negative disables tracing)")
	traceDir := flag.String("trace-dir", "", "also write each request's Chrome trace-event JSON into this directory")
	traceStoreDir := flag.String("trace-store-dir", "", "durably persist /v1/traces uploads in this directory (reloaded at boot)")
	checkpointDir := flag.String("checkpoint-dir", "", "durable checkpoint store: runs snapshot and warm-start across restarts")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "checkpoint spacing in accesses, summed over cores (0 = 1,000,000 with -checkpoint-dir)")
	watchdogInterval := flag.Duration("watchdog-interval", 15*time.Second, "background health-probe period (0 = probe only on GET /readyz)")
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "lapserved: -trace-dir: %v\n", err)
			os.Exit(1)
		}
	}
	var ckpt *lap.CheckpointStore
	if *checkpointDir != "" {
		var err error
		ckpt, err = lap.OpenCheckpointStore(*checkpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lapserved: -checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
	}
	cfg := server.Config{
		Jobs:             *jobs,
		QueueDepth:       *queueDepth,
		RequestTimeout:   *timeout,
		MemoEntries:      *memoEntries,
		MaxAccesses:      *maxAccesses,
		RetryMax:         *retryMax,
		RetryBackoff:     *retryBackoff,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		TraceRequests:    *traceRequests,
		TraceDir:         *traceDir,
		TraceStoreDir:    *traceStoreDir,
		Checkpoints:      ckpt,
		CheckpointEvery:  *checkpointEvery,
		WatchdogInterval: *watchdogInterval,
	}

	if err := serve(*addr, cfg, *drainTimeout, *pprofOn); err != nil {
		fmt.Fprintf(os.Stderr, "lapserved: %v\n", err)
		os.Exit(1)
	}
}

// serve listens on addr and blocks until SIGINT/SIGTERM, then drains.
func serve(addr string, cfg server.Config, drainTimeout time.Duration, pprofOn bool) error {
	// Structured request logging: one JSON line per request on stderr,
	// each carrying the trace_id/span_id that GET /v1/trace/{id} resolves.
	cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	s := server.New(cfg)
	// Process-level failure sources join the server's event stream: every
	// armed fault hit and every contained worker panic becomes an event.
	ev := s.Events()
	fault.SetObserver(func(point, key, mode string, hit uint64) {
		ev.Instant("fault.inject", otrace.Str("run", key), otrace.Str("point", point),
			otrace.Str("mode", mode), otrace.Uint("hit", hit))
	})
	pool.SetPanicObserver(func(key string, v any) {
		ev.Instant("pool.panic", otrace.Str("run", key), otrace.Str("msg", fmt.Sprint(v)))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	handler := s.Handler()
	if pprofOn {
		// The pprof import registered on DefaultServeMux; route only its
		// prefix there so nothing else ever reaches the default mux.
		root := http.NewServeMux()
		root.Handle("/debug/pprof/", http.DefaultServeMux)
		root.Handle("/", handler)
		handler = root
		fmt.Println("lapserved: pprof enabled on /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("lapserved: listening on %s (jobs=%d queue=%d)\n",
		ln.Addr(), cfg.Jobs, cfg.QueueDepth)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: advertise unready first so balancers stop routing here, then
	// close event subscribers (each delivers its queued events and ends —
	// an open SSE stream must not hold Shutdown open), then let in-flight
	// requests finish.
	fmt.Println("lapserved: draining")
	s.SetDraining(true)
	s.Close()
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("lapserved: stopped")
	return nil
}
