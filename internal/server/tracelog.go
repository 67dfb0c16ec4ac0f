package server

import (
	"container/list"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	otrace "repro/internal/obs/trace"
)

// perRequestTraceEvents bounds one request's span ring. A request emits
// a handful of spans per attempt (queue wait, memo, execute), so this is
// generous headroom even for a large sweep; the ring grows on demand, so
// a request pays only for the spans it records.
const perRequestTraceEvents = 4096

// traceLog is the bounded in-memory store behind GET /v1/trace/{id}:
// each traced request's finished (disarmed) tracer, keyed by request ID,
// evicting oldest-first past the bound. Traces are rendered to Chrome
// trace-event JSON only when read.
type traceLog struct {
	mu    sync.Mutex
	max   int
	byID  map[string]*list.Element
	order *list.List // *traceEntry, newest at front
}

type traceEntry struct {
	id string
	tr *otrace.Tracer
}

func newTraceLog(max int) *traceLog {
	return &traceLog{max: max, byID: map[string]*list.Element{}, order: list.New()}
}

func (l *traceLog) put(id string, tr *otrace.Tracer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byID[id] = l.order.PushFront(&traceEntry{id: id, tr: tr})
	for l.order.Len() > l.max {
		back := l.order.Back()
		delete(l.byID, back.Value.(*traceEntry).id)
		l.order.Remove(back)
	}
}

func (l *traceLog) get(id string) (*otrace.Tracer, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.byID[id]
	if !ok {
		return nil, false
	}
	return el.Value.(*traceEntry).tr, true
}

func (l *traceLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// recent returns up to max stored traces, newest first, for the
// diagnostics bundle.
func (l *traceLog) recent(max int) []traceEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]traceEntry, 0, max)
	for el := l.order.Front(); el != nil && len(out) < max; el = el.Next() {
		out = append(out, *el.Value.(*traceEntry))
	}
	return out
}

// traceIDKey carries the request's trace ID down through handler
// contexts so journal events emitted during the request (run lifecycle,
// interval telemetry) correlate with the request log and
// GET /v1/trace/{id} on the same ID.
type traceIDKey struct{}

// traceIDFrom reads the request trace ID stashed by instrument ("" when
// the context did not come through a request).
func traceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// instrument wraps the router with per-request tracing, structured
// logging, and SLO accounting. EVERY request — simulation POSTs and
// read-only GETs alike — gets a request ID (echoed in X-Trace-Id and
// stashed in the context for journal correlation) and the same
// structured log line: method, route (the matched mux pattern), status,
// bytes written, duration, trace_id. Simulation requests additionally
// get a private small tracer whose root "request" span flows down
// through the handler via the request context — queue waits, memo
// provenance, retry attempts, and executions all record under it. The
// tracer is disarmed as the root span ends, so spans that end after the
// response are not recorded, and lands in the trace log, which renders
// it for GET /v1/trace/{id}; with TraceDir set it is also written there
// at once. Their log line carries the root span's ID too.
// Run and sweep requests feed the SLO tracker: server-side failure
// (5xx) burns the availability budget, a slow answer the latency one.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		ctx := context.WithValue(r.Context(), traceIDKey{}, id)
		w.Header().Set("X-Trace-Id", id)
		var tr *otrace.Tracer
		var root *otrace.Span
		if s.traces != nil && r.Method == http.MethodPost {
			tr = otrace.New(perRequestTraceEvents)
			ctx, root = tr.Root(ctx, "request",
				otrace.Str("id", id),
				otrace.Str("method", r.Method),
				otrace.Str("path", r.URL.Path))
			tr.NameTrack(otrace.PidWall, root.ID(), id)
		}
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		dur := time.Since(start)
		if root != nil {
			root.SetAttr(otrace.Int("status", int64(rec.status)))
			root.End()
			tr.SetEnabled(false)
			s.traces.put(id, tr)
			if s.cfg.TraceDir != "" {
				// Best-effort: a full disk must not fail the request.
				_ = os.WriteFile(filepath.Join(s.cfg.TraceDir, id+".json"), tr.ChromeJSON(), 0o644)
			}
		}
		route := r.Pattern
		if route == "" {
			route = r.URL.Path // no mux match (404s)
		}
		if r.Method == http.MethodPost &&
			(r.URL.Path == "/v1/run" || r.URL.Path == "/v1/sweep") {
			// 5xx burns availability; client-side aborts (499) and client
			// errors do not — the server did its part.
			s.slo.Observe(rec.status < http.StatusInternalServerError, dur)
		}
		if s.cfg.Logger != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", dur),
				slog.String("trace_id", id),
			}
			if root != nil {
				attrs = append(attrs, slog.Uint64("span_id", root.ID()))
			}
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// statusRecorder captures the response status and byte count for the
// request log and the root span, and forwards Flush so streaming
// handlers (the /v1/events SSE stream) still reach the client
// incrementally through the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleTrace serves one traced request's Chrome trace-event JSON,
// rendered from its stored tracer.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "request tracing is disabled"})
		return
	}
	id := r.PathValue("id")
	tr, ok := s.traces.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no trace for id " + id + " (evicted or never recorded)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(tr.ChromeJSON())
}
