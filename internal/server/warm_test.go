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
// /v1/run writes the body rendered when its cell was computed and
// records a traced request's few spans, so it must allocate little, in
// bytes and in objects. The figures include the test's own
// httptest request and recorder (about 6.4 KB and 19 allocations).
// The trace log starts recycling tracers only once it is full, so
// 2*defaultTraceRequests requests run before measuring. The budgets
// leave room for -race, whose sync.Pool drops a quarter of what it is
// given (about 10.6 KB and 43 allocations against 9.2 KB and 39).
func TestWarmRunAllocBudget(t *testing.T) {
	const requests = 200
	const bytesBudget, allocsBudget = 13 << 10, 45
	h, body := warmRun(t)
	for i := 0; i < 2*defaultTraceRequests; i++ {
		serveWarm(h, body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if code := serveWarm(h, body); code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, code)
		}
	}
	runtime.ReadMemStats(&after)
	perBytes := (after.TotalAlloc - before.TotalAlloc) / requests
	perAllocs := (after.Mallocs - before.Mallocs) / requests
	t.Logf("a warm /v1/run allocated %d B in %d objects on average", perBytes, perAllocs)
	if perBytes > bytesBudget {
		t.Errorf("a warm /v1/run allocated %d B on average, budget %d B", perBytes, bytesBudget)
	}
	if perAllocs > allocsBudget {
		t.Errorf("a warm /v1/run made %d allocations on average, budget %d", perAllocs, allocsBudget)
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

// TestWarmRunObservables pins what a memo recall shows its caller and
// operator: the computing response's bytes (also once the memo has
// evicted the cell and computed it again), an X-Trace-Id, one request
// log line with exactly the request fields, and an advance of the
// /v1/stats recall count and of the recalled latency histogram.
func TestWarmRunObservables(t *testing.T) {
	var logs bytes.Buffer
	s := New(Config{MemoEntries: 1, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	h := s.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	stats := func() StatsResponse {
		var st StatsResponse
		if err := json.Unmarshal(serve(http.MethodGet, "/v1/stats", nil).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	recalledCount := func() float64 {
		return s.Metrics().Snapshot()[`lapserved_run_duration_seconds_count{source="recalled"}`]
	}
	run := func(req RunRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	body := run(RunRequest{Mix: "WL1", Accesses: smallAccesses})
	first := serve(http.MethodPost, "/v1/run", body).Body.Bytes()

	recall := func(what string) {
		t.Helper()
		st0, hist0 := stats(), recalledCount()
		logs.Reset()
		rec := serve(http.MethodPost, "/v1/run", body)
		if !bytes.Equal(rec.Body.Bytes(), first) {
			t.Errorf("%s: body %s differs from the computing response %s", what, rec.Body, first)
		}
		id := rec.Header().Get("X-Trace-Id")
		if id == "" {
			t.Errorf("%s: no X-Trace-Id", what)
		}
		lines := bytes.Split(bytes.TrimSpace(logs.Bytes()), []byte("\n"))
		if len(lines) != 1 {
			t.Fatalf("%s: %d log lines, want 1:\n%s", what, len(lines), logs.Bytes())
		}
		var line map[string]any
		if err := json.Unmarshal(lines[0], &line); err != nil {
			t.Fatalf("%s: log line %s: %v", what, lines[0], err)
		}
		want := map[string]any{
			"msg": "request", "level": "INFO",
			"method": "POST", "route": "POST /v1/run", "path": "/v1/run",
			"status": float64(http.StatusOK), "bytes": float64(len(first)), "trace_id": id,
		}
		for k, v := range want {
			if line[k] != v {
				t.Errorf("%s: log field %s = %v, want %v", what, k, line[k], v)
			}
		}
		for _, k := range []string{"time", "duration", "span_id"} {
			if _, ok := line[k]; !ok {
				t.Errorf("%s: log line lacks %s: %s", what, k, lines[0])
			}
		}
		if len(line) != len(want)+3 {
			t.Errorf("%s: log line has %d fields, want %d: %s", what, len(line), len(want)+3, lines[0])
		}
		if st := stats(); st.Recalled != st0.Recalled+1 || st.Computed != st0.Computed {
			t.Errorf("%s: stats computed/recalled %d/%d → %d/%d, want one more recall",
				what, st0.Computed, st0.Recalled, st.Computed, st.Recalled)
		}
		if got := recalledCount(); got != hist0+1 {
			t.Errorf("%s: recalled histogram count %v → %v, want one more", what, hist0, got)
		}
	}
	recall("first recall")

	// A second run takes the memo's one entry; the first run's next
	// request computes it again, and the recall after that must still
	// answer the first response's bytes.
	serve(http.MethodPost, "/v1/run", run(RunRequest{Mix: "WL2", Accesses: smallAccesses}))
	if st := stats(); st.Evicted == 0 {
		t.Fatalf("memo evicted nothing: %+v", st)
	}
	st0 := stats()
	if again := serve(http.MethodPost, "/v1/run", body).Body.Bytes(); !bytes.Equal(again, first) {
		t.Errorf("recomputed body %s differs from the first %s", again, first)
	}
	if st := stats(); st.Computed != st0.Computed+1 {
		t.Fatalf("the evicted cell was not computed again: computed %d → %d", st0.Computed, st.Computed)
	}
	recall("recall after recompute")
}
