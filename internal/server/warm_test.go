package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// warmRun builds a server configured as lapserved's defaults configure
// it (per-request tracing on, one JSON log line per request) and
// computes one run, returning the handler and that run's request body:
// every later POST of the body is a memo recall.
func warmRun(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	h := s.Handler()
	body, err := json.Marshal(RunRequest{Mix: "WL1", Accesses: smallAccesses})
	if err != nil {
		tb.Fatal(err)
	}
	if code := serveWarm(h, body); code != http.StatusOK {
		tb.Fatalf("computing run: status %d", code)
	}
	return h, body
}

func serveWarm(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return rec.Code
}

// TestWarmRunAllocBudget gates the serving hot path: a memo-recalled
// /v1/run costs HTTP, JSON and a traced request's few spans, so it must
// allocate little. A tracer that preallocated its 4096-event bound
// alone costs ~425 KiB per request.
func TestWarmRunAllocBudget(t *testing.T) {
	const requests, budget = 200, 64 << 10
	h, body := warmRun(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if code := serveWarm(h, body); code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, code)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / requests; per > budget {
		t.Fatalf("a warm /v1/run allocated %d B on average, budget %d B", per, budget)
	}
}

// BenchmarkWarmRun times one memo-recalled /v1/run through the handler,
// no transport: the server's own cost of a warm request.
func BenchmarkWarmRun(b *testing.B) {
	h, body := warmRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serveWarm(h, body); code != http.StatusOK {
			b.Fatalf("warm request: status %d", code)
		}
	}
}
