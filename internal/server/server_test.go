package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	lap "repro"
	"repro/internal/trace"
)

// testServer spins up a full httptest stack around a Server.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns (status, response bytes).
func post(t *testing.T, url string, body any) (int, []byte) {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, out
}

func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	status, body := get(t, base+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats returned %d: %s", status, body)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

// smallRun keeps e2e simulations fast.
const smallAccesses = 2000

func TestHealthzAndDrain(t *testing.T) {
	s, ts := testServer(t, Config{})
	if status, body := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz: %d %s", status, body)
	}
	s.SetDraining(true)
	// Liveness survives drain — only readiness flips, so an orchestrator
	// pulls the instance from routing without restarting it.
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("draining healthz: got %d, want 200 (liveness must survive drain)", status)
	}
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: got %d %s, want 503", status, body)
	}
	if status, _ := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1"}); status != http.StatusServiceUnavailable {
		t.Fatalf("draining run: got %d, want 503", status)
	}
	s.SetDraining(false)
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after undrain: got %d, want 200", status)
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after undrain: got %d, want 200", status)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses})
	if status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Policy != "LAP" {
		t.Errorf("default policy: got %q, want LAP", res.Policy)
	}
	if !strings.HasPrefix(res.Workload, "mix:WL1[") {
		t.Errorf("workload label: %q", res.Workload)
	}
	if res.Accesses != smallAccesses || res.Seed != 1 {
		t.Errorf("echoed accesses/seed: %d/%d", res.Accesses, res.Seed)
	}
	if res.Cycles == 0 || res.Throughput <= 0 || len(res.IPCs) == 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if res.EPITotalNJ <= 0 || res.TotalNJ <= 0 {
		t.Errorf("energy missing from result: %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		req  RunRequest
	}{
		{"no workload", RunRequest{}},
		{"two workloads", RunRequest{Mix: "WL1", Bench: "mcf"}},
		{"unknown policy", RunRequest{Mix: "WL1", Policy: "bogus"}},
		{"unknown mix member", RunRequest{Mix: "nope,nope,nope,nope"}},
		{"unknown bench", RunRequest{Bench: "nope"}},
		{"unknown trace", RunRequest{Trace: "never-uploaded"}},
		{"accesses over cap", RunRequest{Mix: "WL1", Accesses: 1 << 60}},
		{"bad config", RunRequest{Mix: "WL1", Config: json.RawMessage(`{"Cores": -1}`)}},
		{"mix for other core count", RunRequest{Mix: "WL1", Accesses: smallAccesses, Config: json.RawMessage(`{"Cores": 2}`)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.URL+"/v1/run", tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("got %d (%s), want 400", status, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("400 body is not an error response: %s", body)
			}
		})
	}
	// A config validation failure names the offending field in the 400
	// body (sim.FieldError surfaced through lap.ParseConfig).
	for _, tc := range []struct{ config, field string }{
		{`{"Cores": -1}`, "Cores"},
		{`{"BlockBytes": 32}`, "BlockBytes"},
		{`{"L1Ways": 128, "L1SizeBytes": 65536}`, "L1Ways"},
		{`{"PrefetchDegree": 100000}`, "PrefetchDegree"},
		{`{"Cores": 65}`, "Cores"},
		{`{"L3SizeBytes": 68719476736}`, "L3SizeBytes"},
	} {
		status, body := post(t, ts.URL+"/v1/run",
			RunRequest{Mix: "WL1", Config: json.RawMessage(tc.config)})
		if status != http.StatusBadRequest {
			t.Fatalf("invalid config %s: got %d (%s), want 400", tc.config, status, body)
		}
		var fe errorResponse
		if err := json.Unmarshal(body, &fe); err != nil || fe.Field != tc.field {
			t.Fatalf("400 body does not name the %s field: %s", tc.field, body)
		}
	}
	// A config key that names no Config field is a 400 whose field is
	// the key, not silently dropped: Banks and MSHREntries are retired
	// settings.
	for _, tc := range []struct {
		path, field string
		req         any
	}{
		{"/v1/run", "Banks", RunRequest{Mix: "WL1", Accesses: smallAccesses, Config: json.RawMessage(`{"Banks": 4}`)}},
		{"/v1/sweep", "Banks", SweepRequest{Mixes: []string{"WL1"}, Accesses: smallAccesses, Config: json.RawMessage(`{"Banks": 4}`)}},
		{"/v1/sweep", "Banks", SweepRequest{Mixes: []string{"WL1"}, Policies: []string{"LAP"}, Accesses: smallAccesses,
			Config: json.RawMessage(`{"Banks": 4}`)}},
		{"/v1/run", "MSHREntries", RunRequest{Mix: "WL1", Accesses: smallAccesses, Config: json.RawMessage(`{"MSHREntries": 8}`)}},
		{"/v1/sweep", "MSHREntries", SweepRequest{Mixes: []string{"WL1"}, Accesses: smallAccesses, Config: json.RawMessage(`{"MSHREntries": 8}`)}},
	} {
		status, body := post(t, ts.URL+tc.path, tc.req)
		var ue errorResponse
		if status != http.StatusBadRequest || json.Unmarshal(body, &ue) != nil || ue.Field != tc.field {
			t.Fatalf("%s config with %s: got %d %s, want a 400 whose field is %s", tc.path, tc.field, status, body, tc.field)
		}
	}
	// A threaded run's thread count becomes its core count, so it has
	// the same bound.
	status, body := post(t, ts.URL+"/v1/run", RunRequest{Bench: "x264", Threads: 65, Accesses: smallAccesses})
	var fe errorResponse
	if status != http.StatusBadRequest || json.Unmarshal(body, &fe) != nil || fe.Field != "threads" {
		t.Fatalf("65 threads: got %d %s, want a 400 naming threads", status, body)
	}

	// Bodies that are not exactly one JSON object of known fields are
	// 400s too: malformed JSON, unknown fields, and anything but
	// whitespace after the object, whose content must not be dropped
	// silently.
	for _, tc := range []struct{ name, path, body string }{
		{"malformed JSON", "/v1/run", `{"mix": `},
		{"unknown field", "/v1/run", `{"mixx": "WL1"}`},
		{"trailing object", "/v1/run", `{"mix":"WL1","accesses":20000}{"policy":"nope"}`},
		{"trailing garbage", "/v1/run", `{"mix":"WL1","accesses":20000} garbage`},
		{"sweep trailing object", "/v1/sweep", `{"mixes":["WL1"],"accesses":20000}{"jobs":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var e errorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil ||
				!strings.HasPrefix(e.Error, "decoding request: ") {
				t.Fatalf("got %d %s, want 400 decoding request: …", resp.StatusCode, body)
			}
		})
	}
	// Trailing whitespace after the object is still one value.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(fmt.Sprintf("{\"mix\":\"WL1\",\"accesses\":%d}\n\t \r\n", smallAccesses)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: got %d, want 200", resp.StatusCode)
	}
}

// TestRunCoalescing is an acceptance gate: two concurrent identical
// requests must share exactly one simulation — one computed, one
// recalled.
func TestRunCoalescing(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 4})
	req := RunRequest{Mix: "WH1", Accesses: smallAccesses}

	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	statuses := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = post(t, ts.URL+"/v1/run", req)
		}(i)
	}
	wg.Wait()

	for i := 0; i < 2; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, statuses[i], bodies[i])
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("coalesced responses differ:\n%s\n%s", bodies[0], bodies[1])
	}
	st := getStats(t, ts.URL)
	if st.Computed != 1 {
		t.Errorf("computed: got %d, want exactly 1", st.Computed)
	}
	if st.Recalled != 1 {
		t.Errorf("recalled: got %d, want exactly 1", st.Recalled)
	}

	// A third, sequential identical request is a pure recall.
	if status, body := post(t, ts.URL+"/v1/run", req); status != http.StatusOK || !bytes.Equal(body, bodies[0]) {
		t.Errorf("recalled response differs (status %d):\n%s", status, body)
	}
	if st := getStats(t, ts.URL); st.Computed != 1 || st.Recalled != 2 {
		t.Errorf("after recall: computed=%d recalled=%d, want 1/2", st.Computed, st.Recalled)
	}
}

// TestSweepByteIdenticalAcrossJobs is the other acceptance gate: the same
// sweep against two fresh servers, fanned out at jobs=1 and jobs=8, must
// produce byte-identical bodies. Fresh servers ensure the jobs=8 pass
// really computes in parallel rather than recalling the jobs=1 results.
func TestSweepByteIdenticalAcrossJobs(t *testing.T) {
	req := SweepRequest{
		Mixes:    []string{"WL1", "WH1", "WL2"},
		Accesses: smallAccesses,
	}
	var bodies [][]byte
	for _, jobs := range []int{1, 8} {
		_, ts := testServer(t, Config{Jobs: 8})
		req.Jobs = jobs
		status, body := post(t, ts.URL+"/v1/sweep", req)
		if status != http.StatusOK {
			t.Fatalf("sweep jobs=%d: %d %s", jobs, status, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("sweep bodies differ between jobs=1 and jobs=8:\n%s\n%s", bodies[0], bodies[1])
	}

	var resp SweepResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatalf("decoding sweep: %v", err)
	}
	// The default expansion is configuration-aware: the default config
	// has a uniform STT-RAM LLC, so hybrid-only policies are skipped
	// (with a notice) instead of silently simulating a degenerate LLC.
	eligible, notices, err := lap.ResolvePolicies(lap.DefaultConfig(), "all")
	if err != nil {
		t.Fatal(err)
	}
	nPolicies := len(eligible)
	if wantCells := 3 * nPolicies; len(resp.Results) != wantCells {
		t.Fatalf("sweep cells: got %d, want %d", len(resp.Results), wantCells)
	}
	if len(resp.Skipped) != len(notices) {
		t.Fatalf("skipped notices: got %v, want %v", resp.Skipped, notices)
	}
	if len(resp.Skipped) == 0 || !strings.Contains(resp.Skipped[0], "Lhybrid") {
		t.Fatalf("expected a Lhybrid skip notice, got %v", resp.Skipped)
	}
	// Mix-major request order: first block is WL1 under every policy.
	for i, r := range resp.Results[:nPolicies] {
		if !strings.HasPrefix(r.Workload, "mix:WL1[") {
			t.Errorf("cell %d out of order: %s", i, r.Workload)
		}
	}
}

func TestSweepDefaultsCoverGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full default grid is slow")
	}
	_, ts := testServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{Accesses: 500})
	if status != http.StatusOK {
		t.Fatalf("default sweep: %d %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	eligible, _, err := lap.ResolvePolicies(lap.DefaultConfig(), "all")
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * len(eligible)
	if len(resp.Results) != want {
		t.Fatalf("default grid: got %d cells, want %d", len(resp.Results), want)
	}
}

func TestSweepBackpressure(t *testing.T) {
	_, ts := testServer(t, Config{QueueDepth: 2})
	status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
		Mixes:    []string{"WL1"},
		Policies: []string{"LAP", "inclusive", "exclusive"},
		Accesses: smallAccesses,
	})
	if status != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep: got %d (%s), want 429", status, body)
	}
}

func TestRunBackpressureAndTimeout(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 1, QueueDepth: 1, RequestTimeout: 50 * time.Millisecond})

	// Occupy the only worker slot so requests queue.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	// First request is admitted, waits for the slot, and times out → 504.
	done := make(chan struct{})
	var status504 int
	go func() {
		defer close(done)
		status504, _ = post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses})
	}()

	// While it waits it holds the queue's single slot: the next request
	// must bounce with 429.
	deadline := time.Now().Add(2 * time.Second)
	got429 := false
	for time.Now().Before(deadline) {
		if s.queued.Load() == 1 {
			status, _ := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WH1", Accesses: smallAccesses})
			if status == http.StatusTooManyRequests {
				got429 = true
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	if status504 != http.StatusGatewayTimeout {
		t.Errorf("queued request: got %d, want 504", status504)
	}
	if !got429 {
		t.Errorf("second request was not rejected with 429")
	}
}

func TestTraceUploadAndRun(t *testing.T) {
	_, ts := testServer(t, Config{})

	accs := make([]trace.Access, 0, 512)
	for i := 0; i < 512; i++ {
		accs = append(accs, trace.Access{
			Addr:   uint64(i) * 64,
			Write:  i%3 == 0,
			Instrs: uint16(i%7) + 1,
		})
	}
	var buf bytes.Buffer
	if _, err := trace.WriteAllGzip(&buf, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}

	// Name is required and validated.
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless upload: got %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/traces?name=loopy", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var up TraceUploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Name != "loopy" || up.Records != 512 || len(up.Digest) != 16 {
		t.Fatalf("upload ack: %+v", up)
	}

	// The uploaded trace is runnable by name; default accesses = whole trace.
	status, rbody := post(t, ts.URL+"/v1/run", RunRequest{Trace: "loopy"})
	if status != http.StatusOK {
		t.Fatalf("trace run: %d %s", status, rbody)
	}
	var res RunResult
	if err := json.Unmarshal(rbody, &res); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("trace:loopy@%s", up.Digest); res.Workload != want {
		t.Errorf("trace workload: got %q, want %q", res.Workload, want)
	}
	if res.Accesses != 512 {
		t.Errorf("default trace accesses: got %d, want 512", res.Accesses)
	}

	// Re-uploading different content under the same name changes the
	// digest, so cached results for the old content cannot be recalled.
	accs[0].Addr = 0xfeedface
	var buf2 bytes.Buffer
	if _, err := trace.WriteAll(&buf2, trace.NewSliceSource(accs)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/traces?name=loopy", "application/octet-stream", &buf2)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var up2 TraceUploadResponse
	if err := json.Unmarshal(body, &up2); err != nil {
		t.Fatal(err)
	}
	if up2.Digest == up.Digest {
		t.Error("digest did not change after re-upload with different content")
	}
	if st := getStats(t, ts.URL); st.Traces != 1 {
		t.Errorf("stats traces: got %d, want 1 (replaced, not appended)", st.Traces)
	}
}

func TestTraceUploadRejectsGarbage(t *testing.T) {
	_, ts := testServer(t, Config{})
	for name, payload := range map[string][]byte{
		"not a trace": []byte("plain text, no magic"),
		"empty":       {},
	} {
		resp, err := http.Post(ts.URL+"/v1/traces?name=bad", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestTraceUploadBoundsDecodedBytes: MaxTraceBytes bounds what a gzip
// body decodes to. A 4 KiB bound holds 371 records, so 372 are a 413,
// and so is a gzip far below the bound that inflates far past it; a
// refused upload stores nothing.
func TestTraceUploadBoundsDecodedBytes(t *testing.T) {
	_, ts := testServer(t, Config{MaxTraceBytes: 4 << 10})
	for _, tc := range []struct {
		records int
		status  int
	}{
		{371, http.StatusOK},
		{372, http.StatusRequestEntityTooLarge},
		{100_000, http.StatusRequestEntityTooLarge},
	} {
		var buf bytes.Buffer
		if _, err := trace.WriteAllGzip(&buf, trace.NewSliceSource(make([]trace.Access, tc.records))); err != nil {
			t.Fatal(err)
		}
		if buf.Len() >= 4<<10 {
			t.Fatalf("%d records: gzip body is %d bytes, not below the bound", tc.records, buf.Len())
		}
		resp, err := http.Post(fmt.Sprintf("%s/v1/traces?name=t%d", ts.URL, tc.records), "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%d records: got %d %s, want %d", tc.records, resp.StatusCode, body, tc.status)
		}
	}
	if st := getStats(t, ts.URL); st.Traces != 1 {
		t.Errorf("stats traces: got %d, want 1", st.Traces)
	}
}

func TestStatsLatencyQuantiles(t *testing.T) {
	_, ts := testServer(t, Config{})
	for i := 0; i < 3; i++ {
		// Distinct seeds force distinct computations.
		status, body := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses, Seed: uint64(i) + 1})
		if status != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, status, body)
		}
	}
	st := getStats(t, ts.URL)
	if st.RunLatencySamples != 3 {
		t.Fatalf("latency samples: got %d, want 3", st.RunLatencySamples)
	}
	if st.RunLatencyP50Sec <= 0 || st.RunLatencyP95Sec < st.RunLatencyP50Sec {
		t.Errorf("implausible latency quantiles: p50=%v p95=%v", st.RunLatencyP50Sec, st.RunLatencyP95Sec)
	}
	if st.Computed != 3 || st.MemoEntries != 3 {
		t.Errorf("memo stats: computed=%d entries=%d, want 3/3", st.Computed, st.MemoEntries)
	}
	if st.Queued != 0 || st.InFlight != 0 {
		t.Errorf("idle server reports queued=%d in_flight=%d", st.Queued, st.InFlight)
	}
}

func TestMemoLRUBoundOnServer(t *testing.T) {
	_, ts := testServer(t, Config{MemoEntries: 2})
	for seed := uint64(1); seed <= 4; seed++ {
		status, body := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses, Seed: seed})
		if status != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, status, body)
		}
	}
	st := getStats(t, ts.URL)
	if st.MemoEntries != 2 {
		t.Errorf("bounded memo holds %d entries, want 2", st.MemoEntries)
	}
	if st.Evicted != 2 {
		t.Errorf("evicted: got %d, want 2", st.Evicted)
	}
}

func TestThreadedAndBenchRuns(t *testing.T) {
	_, ts := testServer(t, Config{})

	status, body := post(t, ts.URL+"/v1/run", RunRequest{Bench: "mcf", Accesses: smallAccesses})
	if status != http.StatusOK {
		t.Fatalf("bench run: %d %s", status, body)
	}
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Workload, "mix:4x-mcf[") && !strings.Contains(res.Workload, "mcf") {
		t.Errorf("bench workload label: %q", res.Workload)
	}

	status, body = post(t, ts.URL+"/v1/run", RunRequest{Bench: "x264", Threads: 2, Accesses: smallAccesses})
	if status != http.StatusOK {
		t.Fatalf("threaded run: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "bench:x264/threads=2" {
		t.Errorf("threaded workload label: %q", res.Workload)
	}
	if len(res.IPCs) != 2 {
		t.Errorf("threaded IPCs: got %d cores, want 2", len(res.IPCs))
	}
}

// TestRunConfigOverride checks a partial config JSON really reaches the
// simulator (and splits the cache key from the default-config run).
func TestRunConfigOverride(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := RunRequest{Bench: "mcf", Accesses: smallAccesses}
	over := RunRequest{Bench: "mcf", Accesses: smallAccesses, Config: json.RawMessage(`{"Cores": 2}`)}

	s1, b1 := post(t, ts.URL+"/v1/run", base)
	s2, b2 := post(t, ts.URL+"/v1/run", over)
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("runs failed: %d %s / %d %s", s1, b1, s2, b2)
	}
	var r1, r2 RunResult
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatal(err)
	}
	if len(r1.IPCs) != 4 || len(r2.IPCs) != 2 {
		t.Fatalf("config override did not take: %d vs %d cores", len(r1.IPCs), len(r2.IPCs))
	}
	if st := getStats(t, ts.URL); st.Computed != 2 {
		t.Errorf("distinct configs coalesced: computed=%d, want 2", st.Computed)
	}
}

// TestRunContextCancel covers the 499 path without waiting out a timeout.
func TestRunContextCancel(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 1, QueueDepth: 4, RequestTimeout: time.Minute})
	s.sem <- struct{}{} // park the worker slot so the request queues
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	data, _ := json.Marshal(RunRequest{Mix: "WL1", Accesses: smallAccesses})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}
	// The handler must have released its queue slot despite the cancel.
	deadline := time.Now().Add(2 * time.Second)
	for s.queued.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("queue slot leaked after cancel: queued=%d", got)
	}
}

// TestCachedRunBypassesWorkerSlots: a request for an already-cached key
// must be served by the memo fast path without waiting for (or burning)
// a worker slot. Pre-fix, runCell acquired the semaphore before looking
// at the memo, so cache hits queued behind running simulations.
func TestCachedRunBypassesWorkerSlots(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 2, RequestTimeout: time.Minute})
	req := RunRequest{Mix: "WL1", Accesses: smallAccesses}
	if status, body := post(t, ts.URL+"/v1/run", req); status != http.StatusOK {
		t.Fatalf("priming run: %d %s", status, body)
	}

	// Saturate every worker slot, as slow simulations would.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()

	type reply struct {
		status int
		body   []byte
	}
	done := make(chan reply, 1)
	go func() {
		status, body := post(t, ts.URL+"/v1/run", req)
		done <- reply{status, body}
	}()
	select {
	case r := <-done:
		if r.status != http.StatusOK {
			t.Fatalf("cached run: %d %s", r.status, r.body)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cached run queued behind saturated worker slots")
	}
	if st := getStats(t, ts.URL); st.Computed != 1 || st.Recalled == 0 {
		t.Fatalf("stats = computed %d recalled %d, want 1 and >0", st.Computed, st.Recalled)
	}
}

// TestMetricsEndpoint: GET /metrics serves the Prometheus text format
// with every load-bearing family present under its type, and one
// computed and one recalled run move the series they should: the
// run-latency histogram's provenance split, queue wait, the lapsim_*
// throughput series and the event counter.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{})
	// Long enough for LAP to evict from the L2s into the LLC's banks.
	req := RunRequest{Mix: "WH1", Accesses: 20000}
	for i := 0; i < 2; i++ { // one computed, one recalled
		if status, body := post(t, ts.URL+"/v1/run", req); status != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, status, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE lapserved_queue_depth gauge",
		"# TYPE lapserved_breaker_state gauge",
		"# TYPE lapserved_breaker_transitions_total counter",
		"# TYPE lapserved_retry_attempts_total counter",
		"# TYPE lapserved_run_duration_seconds histogram",
		`lapserved_retry_attempts_total{outcome="success"} 0`,
		`lapserved_breaker_transitions_total{to="open"} 0`,
		"lapserved_memo_computed_total 1",
		"lapserved_queue_limit " + fmt.Sprint(defaultQueueDepth),
		"lapserved_breaker_state 0",
		`lapserved_run_duration_seconds_bucket{source="computed",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every load-bearing family is present with its type.
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	for family, typ := range map[string]string{
		"lapserved_breaker_state":               "gauge",
		"lapserved_queue_depth":                 "gauge",
		"lapserved_queue_limit":                 "gauge",
		"lapserved_inflight_runs":               "gauge",
		"lapserved_trace_store_entries":         "gauge",
		"lapserved_breaker_shed_total":          "counter",
		"lapserved_admit_rejected_total":        "counter",
		"lapserved_runs_failed_total":           "counter",
		"lapserved_memo_computed_total":         "counter",
		"lapserved_memo_recalled_total":         "counter",
		"lapserved_profile_memo_computed_total": "counter",
		"lapserved_sample_runs_total":           "counter",
		"lapserved_sample_last_work_reduction":  "gauge",
		"lapserved_breaker_transitions_total":   "counter",
		"lapserved_retry_attempts_total":        "counter",
		"lapserved_run_duration_seconds":        "histogram",
		"lapserved_queue_wait_seconds":          "histogram",
		"lapserved_watchdog_healthy":            "gauge",
		"lapserved_events_emitted_total":        "counter",
		"lapserved_events_dropped_total":        "counter",
		"lapserved_event_subscribers":           "gauge",
		"lapsim_accesses_per_second":            "gauge",
		"lapsim_bank_ops_total":                 "counter",
	} {
		if got := types[family]; got != typ {
			t.Errorf("family %s has type %q, want %q", family, got, typ)
		}
	}
	snap := s.Metrics().Snapshot()
	for _, series := range []string{
		`lapserved_retry_attempts_total{outcome="failure"}`,
		`lapserved_watchdog_healthy{subsystem="queue"}`,
		`lapserved_watchdog_healthy{subsystem="breaker"}`,
	} {
		if _, ok := snap[series]; !ok {
			t.Errorf("series %s missing", series)
		}
	}
	// The traffic: one computed run, one recalled, a quiet breaker. Queue
	// wait is observed only when a run computes, and the computed run
	// fed the simulator-throughput series.
	if got := snap[`lapserved_run_duration_seconds_count{source="computed"}`]; got != 1 {
		t.Errorf("computed latency count = %v, want 1", got)
	}
	if got := snap[`lapserved_run_duration_seconds_count{source="recalled"}`]; got < 1 {
		t.Errorf("recalled latency count = %v, want >= 1", got)
	}
	if got := snap["lapserved_memo_recalled_total"]; got < 1 {
		t.Errorf("memo recalled = %v, want >= 1", got)
	}
	if got := snap["lapserved_queue_wait_seconds_count"]; got != 1 {
		t.Errorf("queue wait count = %v, want 1", got)
	}
	if got := snap["lapsim_accesses_per_second"]; got <= 0 {
		t.Errorf("accesses per second = %v, want > 0", got)
	}
	if got := snap[`lapsim_bank_ops_total{bank="0"}`]; got <= 0 {
		t.Errorf("bank 0 ops = %v, want > 0", got)
	}
	if got := snap["lapserved_events_emitted_total"]; got < 2 {
		t.Errorf("events emitted = %v, want the computed run's run.start and run.finish", got)
	}
}
