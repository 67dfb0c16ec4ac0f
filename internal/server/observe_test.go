package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	otrace "repro/internal/obs/trace"
)

func TestHealthzBody(t *testing.T) {
	s, ts := testServer(t, Config{QueueDepth: 7})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body is not JSON: %v (%s)", err, body)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.Breaker != "closed" {
		t.Errorf("breaker = %q, want closed", h.Breaker)
	}
	if h.QueueLimit != 7 {
		t.Errorf("queue_limit = %d, want 7", h.QueueLimit)
	}
	if h.QueueDepth != 0 || h.InFlight != 0 {
		t.Errorf("idle server reports occupancy: %+v", h)
	}

	s.SetDraining(true)
	status, body = get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("draining healthz: %d, want 200 (liveness survives drain)", status)
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "draining" {
		t.Fatalf("draining body: %s (err %v)", body, err)
	}
	if h.Breaker == "" {
		t.Error("draining body lost the breaker field")
	}
}

// postTraced is post plus the X-Trace-Id response header.
func postTraced(t *testing.T, url string, body any) (int, []byte, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes(), resp.Header.Get("X-Trace-Id")
}

// traceSpans fetches /v1/trace/{id} and returns the span names present.
func traceSpans(t *testing.T, base, id string) map[string]int {
	t.Helper()
	status, body := get(t, base+"/v1/trace/"+id)
	if status != http.StatusOK {
		t.Fatalf("trace %s: %d %s", id, status, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace %s is not valid trace-event JSON: %v", id, err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	return spans
}

func TestRequestTraceEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{TraceDir: dir})

	status, body, id := postTraced(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses})
	if status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}
	if id == "" {
		t.Fatal("traced run response carries no X-Trace-Id")
	}
	spans := traceSpans(t, ts.URL, id)
	// A first (uncached) run computes: the timeline must show the whole
	// path — request root, retry attempt, queue wait, memo compute, and
	// the execution itself.
	for _, want := range []string{"request", "attempt", "queue_wait", "memo.compute", "execute"} {
		if spans[want] == 0 {
			t.Errorf("trace %s lacks span %q (got %v)", id, want, spans)
		}
	}

	// The same run again recalls from the memo: provenance must show in
	// the trace as a peek hit with no execution.
	status, _, id2 := postTraced(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses})
	if status != http.StatusOK || id2 == "" || id2 == id {
		t.Fatalf("second run: %d, trace %q", status, id2)
	}
	spans2 := traceSpans(t, ts.URL, id2)
	if spans2["execute"] != 0 {
		t.Errorf("recalled run executed: %v", spans2)
	}
	if spans2["memo.peek"] == 0 {
		t.Errorf("recalled run has no memo.peek span: %v", spans2)
	}

	// -trace-dir wrote both files.
	for _, tid := range []string{id, id2} {
		if _, err := os.Stat(filepath.Join(dir, tid+".json")); err != nil {
			t.Errorf("trace file for %s: %v", tid, err)
		}
	}

	// Unknown IDs are a clean 404.
	if status, _ := get(t, ts.URL+"/v1/trace/req-999999"); status != http.StatusNotFound {
		t.Errorf("unknown trace id: got %d, want 404", status)
	}
}

func TestRequestTracingDisabled(t *testing.T) {
	_, ts := testServer(t, Config{TraceRequests: -1})
	status, body, id := postTraced(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses})
	if status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}
	// The correlation ID is independent of the tracer: every request gets
	// one (logs and events key on it) even when span recording is
	// off — but the trace endpoint has nothing to serve.
	if id == "" {
		t.Error("tracing disabled but response lost its X-Trace-Id correlation header")
	}
	if status, _ := get(t, ts.URL+"/v1/trace/"+id); status != http.StatusNotFound {
		t.Errorf("trace endpoint with tracing disabled: got %d, want 404", status)
	}
}

func TestTraceLogEvictsOldest(t *testing.T) {
	l := newTraceLog(3)
	trs := make([]*otrace.Tracer, 6)
	for i := 1; i <= 5; i++ {
		trs[i] = otrace.New(8)
		l.put(fmt.Sprintf("req-%06d", i), trs[i])
	}
	if l.count() != 3 {
		t.Fatalf("resident = %d, want 3", l.count())
	}
	for i := 1; i <= 2; i++ {
		if _, ok := l.get(fmt.Sprintf("req-%06d", i)); ok {
			t.Errorf("entry %d survived past the bound", i)
		}
	}
	for i := 3; i <= 5; i++ {
		if tr, ok := l.get(fmt.Sprintf("req-%06d", i)); !ok || tr != trs[i] {
			t.Errorf("entry %d missing or corrupt", i)
		}
	}
}

// TestTraceOmitsSpansEndedAfterResponse pins trace-on-read: a request's
// trace is rendered when read, yet a child span that ends after the
// handler returned (work the request left running) is absent from it,
// because the tracer is disarmed as the root span ends.
func TestTraceOmitsSpansEndedAfterResponse(t *testing.T) {
	s := New(Config{})
	var late *otrace.Span
	s.mux.HandleFunc("POST /test/late", func(w http.ResponseWriter, r *http.Request) {
		_, inTime := otrace.Start(r.Context(), "in_time")
		inTime.End()
		_, late = otrace.Start(r.Context(), "late")
		w.WriteHeader(http.StatusNoContent)
	})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/test/late", nil))
	id := rec.Header().Get("X-Trace-Id")
	if late == nil || id == "" {
		t.Fatalf("request was not traced (span %v, trace id %q)", late, id)
	}
	late.End()

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace %s: %d %s", id, rec.Code, rec.Body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace %s is not valid trace-event JSON: %v", id, err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	if spans["request"] != 1 || spans["in_time"] != 1 {
		t.Errorf("trace lacks the spans that ended in time: %v", spans)
	}
	if spans["late"] != 0 {
		t.Errorf("span ended after the response was recorded: %v", spans)
	}
}

// TestRecycledTracerTracesOnlyItsRequest bounds the trace log at one
// entry, so that every request reuses the tracer of the request before
// it, and checks a recall's trace holds its own request → attempt →
// memo.peek spans and nothing left from the request that computed.
func TestRecycledTracerTracesOnlyItsRequest(t *testing.T) {
	_, ts := testServer(t, Config{TraceRequests: 1})
	req := RunRequest{Mix: "WL1", Accesses: smallAccesses}
	for i := 0; i < 4; i++ {
		status, body, id := postTraced(t, ts.URL+"/v1/run", req)
		if status != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, status, body)
		}
		spans := traceSpans(t, ts.URL, id)
		want := map[string]int{"request": 1, "attempt": 1, "memo.peek": 1}
		if i == 0 {
			want = map[string]int{"request": 1, "attempt": 1, "memo.peek": 1, "queue_wait": 1, "memo.compute": 1, "execute": 1}
		}
		if fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Errorf("run %d (trace %s): spans %v, want %v", i, id, spans, want)
		}
	}
}

// TestTraceLogKeepsPinnedTracers checks that a tracer the log evicts
// while a reader holds it is never handed to a new request.
func TestTraceLogKeepsPinnedTracers(t *testing.T) {
	l := newTraceLog(1)
	held := l.tracer()
	l.put("req-000001", held)
	if tr, ok := l.get("req-000001"); !ok || tr != held {
		t.Fatal("stored tracer not found")
	}
	for i := 2; i < 50; i++ {
		tr := l.tracer()
		if tr == held {
			t.Fatalf("request %d got the tracer a reader still holds", i)
		}
		l.put(fmt.Sprintf("req-%06d", i), tr)
	}
	l.unpin(held)
}

// TestTraceLogRecyclesUnderConcurrency has several clients post recalls
// and read their traces back through a two-entry trace log, so that
// tracers are evicted, pinned by readers and handed to new requests all
// at once (run it under -race). A trace that is still stored must be
// its own request's: the root span carries the request's ID.
func TestTraceLogRecyclesUnderConcurrency(t *testing.T) {
	s := New(Config{TraceRequests: 2})
	h := s.Handler()
	body, err := json.Marshal(RunRequest{Mix: "WL1", Accesses: smallAccesses})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path string, b []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		return rec
	}
	if rec := serve(http.MethodPost, "/v1/run", body); rec.Code != http.StatusOK {
		t.Fatalf("computing run: %d", rec.Code)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := serve(http.MethodPost, "/v1/run", body)
				id := rec.Header().Get("X-Trace-Id")
				if rec.Code != http.StatusOK || id == "" {
					t.Errorf("recall: status %d, trace %q", rec.Code, id)
					return
				}
				tr := serve(http.MethodGet, "/v1/trace/"+id, nil)
				if tr.Code == http.StatusNotFound {
					continue // already evicted by the other clients
				}
				var doc struct {
					TraceEvents []struct {
						Name string         `json:"name"`
						Ph   string         `json:"ph"`
						Args map[string]any `json:"args"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(tr.Body.Bytes(), &doc); err != nil {
					t.Errorf("trace %s: %v", id, err)
					return
				}
				spans := 0
				for _, ev := range doc.TraceEvents {
					if ev.Ph != "X" {
						continue
					}
					spans++
					if ev.Name == "request" && ev.Args["id"] != id {
						t.Errorf("trace %s holds the request span of %v", id, ev.Args["id"])
					}
				}
				if spans != 3 {
					t.Errorf("trace %s holds %d spans, want request, attempt and memo.peek", id, spans)
				}
			}
		}()
	}
	wg.Wait()
}
