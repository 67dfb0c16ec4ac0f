package server

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
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
//
// Tracers are recycled: one the bound evicts goes back to the log's
// pool for a later request, unless a reader still renders it (pinned),
// so a traced request allocates no tracer, track map or ring.
type traceLog struct {
	mu      sync.Mutex
	max     int
	entries []traceEntry // a ring once full; next is then the oldest
	next    int
	pinned  map[*otrace.Tracer]int // tracers being read, with reader counts
	free    sync.Pool              // evicted tracers no reader holds
}

type traceEntry struct {
	id string
	tr *otrace.Tracer
}

func newTraceLog(max int) *traceLog {
	return &traceLog{max: max, pinned: map[*otrace.Tracer]int{}}
}

// tracer returns an armed, empty tracer for a new request.
func (l *traceLog) tracer() *otrace.Tracer {
	if tr, ok := l.free.Get().(*otrace.Tracer); ok {
		tr.Reset()
		return tr
	}
	return otrace.New(perRequestTraceEvents)
}

func (l *traceLog) put(id string, tr *otrace.Tracer) {
	l.mu.Lock()
	if len(l.entries) < l.max {
		l.entries = append(l.entries, traceEntry{id: id, tr: tr})
		l.mu.Unlock()
		return
	}
	old := l.entries[l.next].tr
	l.entries[l.next] = traceEntry{id: id, tr: tr}
	l.next = (l.next + 1) % len(l.entries)
	reusable := l.pinned[old] == 0
	l.mu.Unlock()
	if reusable {
		l.free.Put(old)
	}
}

// get returns id's tracer pinned: it is not recycled before unpin.
func (l *traceLog) get(id string) (*otrace.Tracer, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		if e.id == id {
			l.pinned[e.tr]++
			return e.tr, true
		}
	}
	return nil, false
}

func (l *traceLog) unpin(tr *otrace.Tracer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pinned[tr]--; l.pinned[tr] <= 0 {
		delete(l.pinned, tr)
	}
}

// render returns id's trace as Chrome trace-event JSON.
func (l *traceLog) render(id string) ([]byte, bool) {
	tr, ok := l.get(id)
	if !ok {
		return nil, false
	}
	defer l.unpin(tr)
	return tr.ChromeJSON(), true
}

func (l *traceLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// recent returns the IDs of up to max stored traces, newest first, for
// the diagnostics bundle.
func (l *traceLog) recent(max int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := min(max, len(l.entries))
	out := make([]string, n)
	for i := range out {
		out[i] = l.entries[(l.next-1-i+2*len(l.entries))%len(l.entries)].id
	}
	return out
}

// traceIDKey carries the request's trace ID down through handler
// contexts so events emitted during the request (run lifecycle,
// interval telemetry) correlate with the request log and
// GET /v1/trace/{id} on the same ID.
type traceIDKey struct{}

// traceIDFrom reads the request trace ID stashed by instrument ("" when
// the context did not come through a request).
func traceIDFrom(ctx context.Context) string {
	if rc, ok := ctx.Value(traceIDKey{}).(*requestCtx); ok {
		return rc.id
	}
	return ""
}

// requestCtx is instrument's per-request state in one allocation: the
// request context, which answers traceIDKey with itself, the
// X-Trace-Id header value, and the response recorder.
type requestCtx struct {
	context.Context
	id  string
	hdr [1]string
	rec statusRecorder
}

func (c *requestCtx) Value(key any) any {
	if key == (traceIDKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// instrument wraps the router with per-request tracing and structured
// logging. EVERY request — simulation POSTs and
// read-only GETs alike — gets a request ID (echoed in X-Trace-Id and
// stashed in the context for event correlation) and the same
// structured log line: method, route (the matched mux pattern), path,
// status, bytes written, duration, trace_id. Simulation requests additionally
// get a private small tracer whose root "request" span flows down
// through the handler via the request context — queue waits, memo
// provenance, retry attempts, and executions all record under it. The
// tracer is disarmed as the root span ends, so spans that end after the
// response are not recorded, and lands in the trace log, which renders
// it for GET /v1/trace/{id}; with TraceDir set it is also written there
// at once. Their log line carries the root span's ID (span_id) too.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(s.reqSeq.Add(1))
		rc := &requestCtx{Context: r.Context(), id: id, hdr: [1]string{id},
			rec: statusRecorder{ResponseWriter: w, status: http.StatusOK}}
		w.Header()["X-Trace-Id"] = rc.hdr[:]
		var ctx context.Context = rc
		var tr *otrace.Tracer
		var root *otrace.Span
		if s.traces != nil && r.Method == http.MethodPost {
			tr = s.traces.tracer()
			ctx, root = tr.Root(ctx, "request",
				otrace.Str("id", id),
				otrace.Str("method", r.Method),
				otrace.Str("path", r.URL.Path))
			tr.NameTrack(otrace.PidWall, root.ID(), id)
		}
		r = r.WithContext(ctx)
		rec := &rc.rec
		h.ServeHTTP(rec, r)
		dur := time.Since(start)
		if root != nil {
			root.SetAttr(otrace.Int("status", int64(rec.status)))
			root.End()
			tr.SetEnabled(false)
			if s.cfg.TraceDir != "" {
				// Best-effort: a full disk must not fail the request.
				_ = os.WriteFile(filepath.Join(s.cfg.TraceDir, id+".json"), tr.ChromeJSON(), 0o644)
			}
			s.traces.put(id, tr) // from here on the log may recycle tr
		}
		route := r.Pattern
		if route == "" {
			route = r.URL.Path // no mux match (404s)
		}
		if s.cfg.Logger != nil {
			attrs := [...]slog.Attr{
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", dur),
				slog.String("trace_id", id),
				{}, // span_id, on traced requests
			}
			n := len(attrs) - 1
			if root != nil {
				attrs[n] = slog.Uint64("span_id", root.ID())
				n++
			}
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs[:n]...)
		}
	})
}

// requestID formats request number n as "req-%06d".
func requestID(n uint64) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	b := append(make([]byte, 0, 32), "req-"...)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
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
	data, ok := s.traces.render(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no trace for id " + id + " (evicted or never recorded)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
