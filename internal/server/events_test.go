package server

import (
	"archive/tar"
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	otrace "repro/internal/obs/trace"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    uint64
	event string
	data  []byte
}

// sseClient reads frames off an open /v1/events stream.
type sseClient struct {
	resp   *http.Response
	rd     *bufio.Reader
	cancel context.CancelFunc
}

// openSSE connects to url and returns a frame reader; the stream is torn
// down via t.Cleanup.
func openSSE(t *testing.T, url string, lastEventID string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatalf("building events request: %v", err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type = %q, want text/event-stream", ct)
	}
	c := &sseClient{resp: resp, rd: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next reads one frame, skipping comments/heartbeats, within the
// deadline. Returns false when the stream ends or the deadline passes.
func (c *sseClient) next(t *testing.T, deadline time.Duration) (sseFrame, bool) {
	t.Helper()
	timer := time.AfterFunc(deadline, c.cancel)
	defer timer.Stop()
	var f sseFrame
	seen := false
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			return sseFrame{}, false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				return f, true
			}
			// Blank after a comment-only block: keep reading.
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			n, perr := strconv.ParseUint(line[4:], 10, 64)
			if perr != nil {
				t.Fatalf("bad SSE id line %q: %v", line, perr)
			}
			f.id, seen = n, true
		case strings.HasPrefix(line, "event: "):
			f.event, seen = line[7:], true
		case strings.HasPrefix(line, "data: "):
			f.data, seen = []byte(line[6:]), true
		}
	}
}

// collectUntil reads frames until one matching kind arrives (inclusive)
// or the deadline passes.
func (c *sseClient) collectUntil(t *testing.T, kind string, deadline time.Duration) []sseFrame {
	t.Helper()
	var frames []sseFrame
	limit := time.Now().Add(deadline)
	for {
		rem := time.Until(limit)
		if rem <= 0 {
			return frames
		}
		f, ok := c.next(t, rem)
		if !ok {
			return frames
		}
		frames = append(frames, f)
		if f.event == kind {
			return frames
		}
	}
}

// waitSubscribers polls until s's events tracer has n live subscribers,
// so a test can order "subscribe" before "run".
func waitSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if live, _ := s.Events().Subscribers(); live >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("the event stream never reached %d subscribers", n)
}

// record decodes a frame's data as the trace JSONL record and checks
// that it agrees with the frame's id and event lines.
func (f sseFrame) record(t *testing.T) otrace.Record {
	t.Helper()
	var rec otrace.Record
	if err := json.Unmarshal(f.data, &rec); err != nil {
		t.Fatalf("frame %d (%s) data is not a trace record: %v", f.id, f.event, err)
	}
	if rec.Seq != f.id || rec.Name != f.event || rec.Ph != "i" {
		t.Fatalf("frame %d/%s disagrees with its record %d/%s (ph %q)", f.id, f.event, rec.Seq, rec.Name, rec.Ph)
	}
	return rec
}

// TestEventsSSELifecycle: a live subscriber sees the run lifecycle —
// run.start, per-interval telemetry, run.finish — as ordered SSE frames
// with strictly increasing sequence IDs, and the event payloads carry
// the run key and the request's trace ID.
func TestEventsSSELifecycle(t *testing.T) {
	s, ts := testServer(t, Config{})
	c := openSSE(t, ts.URL+"/v1/events", "")
	waitSubscribers(t, s, 1)

	status, body, tid := postTraced(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses})
	if status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}

	frames := c.collectUntil(t, "run.finish", 10*time.Second)
	kinds := map[string]int{}
	var lastSeq uint64
	for _, f := range frames {
		kinds[f.event]++
		if f.id <= lastSeq {
			t.Fatalf("sequence not strictly increasing: %d after %d", f.id, lastSeq)
		}
		lastSeq = f.id
	}
	for _, want := range []string{"run.start", "interval", "run.finish"} {
		if kinds[want] == 0 {
			t.Errorf("stream lacks %q events (got %v)", want, kinds)
		}
	}

	// Frames decode as trace records and correlate: the run key on
	// every lifecycle frame, the request's trace ID threaded through.
	for _, f := range frames {
		rec := f.record(t)
		if f.event == "run.start" {
			if rec.Attrs["run"] == nil {
				t.Error("run.start event lacks a run key")
			}
			if tid != "" && rec.Attrs["trace_id"] != tid {
				t.Errorf("run.start trace = %v, want %q", rec.Attrs["trace_id"], tid)
			}
		}
	}
}

// TestEventsSSEReplay: a reconnecting client presenting Last-Event-ID
// replays the retained suffix with monotone sequence numbers, and
// ?kind= filters narrow the stream server-side.
func TestEventsSSEReplay(t *testing.T) {
	s, ts := testServer(t, Config{})
	if status, body := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses}); status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}

	// Replay everything: ?from=1 on a quiet server yields the whole ring.
	c := openSSE(t, ts.URL+"/v1/events?from=1", "")
	frames := c.collectUntil(t, "run.finish", 5*time.Second)
	if len(frames) == 0 {
		t.Fatal("replay from seq 1 yielded no frames")
	}
	if frames[0].id != 1 {
		t.Errorf("replay starts at seq %d, want 1", frames[0].id)
	}
	cut := frames[len(frames)-1].id
	if frames[len(frames)-1].event != "run.finish" {
		t.Fatalf("replay never reached run.finish (%d frames)", len(frames))
	}
	c.close()

	// Reconnect as a browser would: Last-Event-ID = the split point means
	// "I have everything through cut"; with a fresh run afterwards the
	// stream resumes strictly after it.
	c2 := openSSE(t, ts.URL+"/v1/events", strconv.FormatUint(cut, 10))
	waitSubscribers(t, s, 1)
	if status, body := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL2", Accesses: smallAccesses}); status != http.StatusOK {
		t.Fatalf("second run: %d %s", status, body)
	}
	resumed := c2.collectUntil(t, "run.finish", 10*time.Second)
	if len(resumed) == 0 {
		t.Fatal("resumed stream yielded no frames")
	}
	last := cut
	for _, f := range resumed {
		if f.id <= last {
			t.Fatalf("resumed seq %d not after %d", f.id, last)
		}
		last = f.id
	}
	c2.close()

	// Kind filter: only run.* frames come through.
	c3 := openSSE(t, ts.URL+"/v1/events?from=1&kind=run.*", "")
	filtered := c3.collectUntil(t, "run.finish", 5*time.Second)
	if len(filtered) == 0 {
		t.Fatal("filtered replay yielded no frames")
	}
	for _, f := range filtered {
		if !strings.HasPrefix(f.event, "run.") {
			t.Errorf("kind=run.* let %q through", f.event)
		}
	}
	c3.close()

	// Run filter: only the second run's frames come through, and a
	// ?from= cut resumes strictly after it.
	var run2 string
	for _, f := range resumed {
		if f.event == "run.start" {
			run2, _ = f.record(t).Attrs["run"].(string)
		}
	}
	c4 := openSSE(t, ts.URL+"/v1/events?from="+strconv.FormatUint(cut+1, 10)+"&run="+url.QueryEscape(run2), "")
	byRun := c4.collectUntil(t, "run.finish", 5*time.Second)
	if len(byRun) == 0 || byRun[len(byRun)-1].event != "run.finish" {
		t.Fatalf("run=%s replay never reached run.finish (%d frames)", run2, len(byRun))
	}
	for _, f := range byRun {
		if f.id <= cut {
			t.Errorf("?from=%d replayed seq %d", cut+1, f.id)
		}
		if got := f.record(t).Attrs["run"]; got != run2 {
			t.Errorf("run=%s let a %s frame for %v through", run2, f.event, got)
		}
	}
}

// pipeWriter is a streaming ResponseWriter whose writes block until the
// test reads them, so a test can stall a /v1/events consumer.
type pipeWriter struct {
	h  http.Header
	pw *io.PipeWriter
}

func (w pipeWriter) Header() http.Header         { return w.h }
func (w pipeWriter) Write(p []byte) (int, error) { return w.pw.Write(p) }
func (w pipeWriter) WriteHeader(int)             {}
func (w pipeWriter) Flush()                      {}

// TestEventsSlowConsumerDropsOldest: a /v1/events consumer that stops
// reading loses its oldest events, never blocks the emitter, and is told
// in-stream how many it lost; Close then drains what is queued and ends
// the stream.
func TestEventsSlowConsumerDropsOldest(t *testing.T) {
	s := New(Config{})
	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodGet, "/v1/events", nil)
	ended := make(chan struct{})
	go func() {
		s.handleEvents(pipeWriter{h: http.Header{}, pw: pw}, req)
		pw.Close()
		close(ended)
	}()
	rd := bufio.NewReader(pr)
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("stream preamble = %q, %v", line, err)
	}
	waitSubscribers(t, s, 1)

	// The handler takes at most one queue's worth (1024) and then blocks
	// writing it; the rest of the burst overflows its queue.
	const burst = 5000
	emitted := make(chan struct{})
	go func() {
		for i := 0; i < burst; i++ {
			s.Events().Instant("burst")
		}
		close(emitted)
	}()
	select {
	case <-emitted:
	case <-time.After(10 * time.Second):
		t.Fatal("the emitter blocked on a stalled consumer")
	}
	s.Close()

	var frames, dropped int
	last := uint64(0)
	for {
		line, err := rd.ReadString('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var n int
		if _, err := fmt.Sscanf(line, ": dropped %d events", &n); err == nil {
			dropped += n
		}
		if id, ok := strings.CutPrefix(strings.TrimSpace(line), "id: "); ok {
			seq, _ := strconv.ParseUint(id, 10, 64)
			if seq <= last {
				t.Fatalf("seq %d after %d", seq, last)
			}
			last = seq
			frames++
		}
	}
	<-ended
	if dropped == 0 {
		t.Fatal("no drop comment after a stalled consumer overflowed its queue")
	}
	if frames+dropped != burst {
		t.Errorf("%d frames + %d dropped, want the burst's %d", frames, dropped, burst)
	}
	if last != burst {
		t.Errorf("last frame has seq %d, want the newest event %d (drop-oldest)", last, burst)
	}
}

// sweepCells is the sweep the next two tests run: two cells of one mix.
var sweepCells = SweepRequest{Mixes: []string{"WH1"}, Policies: []string{"LAP", "non-inclusive"}, Accesses: smallAccesses, Jobs: 2}

// TestEventsSweepStory: a subscriber watching a sweep sees sweep.start
// first, then each cell's run.start, its interval events and its
// run.finish in that order, and sweep.finish last.
func TestEventsSweepStory(t *testing.T) {
	s, ts := testServer(t, Config{Jobs: 2})
	c := openSSE(t, ts.URL+"/v1/events", "")
	waitSubscribers(t, s, 1)
	if status, body := post(t, ts.URL+"/v1/sweep", sweepCells); status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, body)
	}
	frames := c.collectUntil(t, "sweep.finish", 30*time.Second)
	if len(frames) == 0 || frames[0].event != "sweep.start" || frames[len(frames)-1].event != "sweep.finish" {
		t.Fatalf("the stream does not open with sweep.start and close with sweep.finish: %d frames", len(frames))
	}
	type story struct{ start, intervals, finish int }
	cells := map[string]*story{}
	for i, f := range frames {
		rec := f.record(t)
		run, _ := rec.Attrs["run"].(string)
		switch f.event {
		case "sweep.start", "sweep.finish":
			if i != 0 && i != len(frames)-1 {
				t.Errorf("%s at frame %d of %d", f.event, i, len(frames))
			}
			continue
		case "run.start":
			if cells[run] != nil {
				t.Fatalf("second run.start for %s", run)
			}
			cells[run] = &story{start: i}
			continue
		}
		st := cells[run]
		if st == nil || st.finish != 0 {
			t.Fatalf("frame %d: %s for %q outside its run.start..run.finish", i, f.event, run)
		}
		switch f.event {
		case "interval":
			st.intervals++
		case "run.finish":
			st.finish = i
		}
	}
	if len(cells) != len(sweepCells.Policies) {
		t.Fatalf("%d cells told their story, want %d", len(cells), len(sweepCells.Policies))
	}
	for run, st := range cells {
		if st.intervals == 0 || st.finish == 0 {
			t.Errorf("%s: %d intervals, finish at frame %d", run, st.intervals, st.finish)
		}
	}
}

// TestSweepBodyIdenticalWithSubscriber: streaming observes and never
// steers. A run and a sweep answer byte-identically on a server with a
// live /v1/events subscriber and on one that never had one.
func TestSweepBodyIdenticalWithSubscriber(t *testing.T) {
	run := RunRequest{Mix: "WL2", Accesses: smallAccesses}
	var bodies [2][2][]byte
	for i, subscribe := range []bool{true, false} {
		s, ts := testServer(t, Config{Jobs: 2})
		if subscribe {
			openSSE(t, ts.URL+"/v1/events", "")
			waitSubscribers(t, s, 1)
		}
		for j, do := range []func() (int, []byte){
			func() (int, []byte) { return post(t, ts.URL+"/v1/run", run) },
			func() (int, []byte) { return post(t, ts.URL+"/v1/sweep", sweepCells) },
		} {
			status, body := do()
			if status != http.StatusOK {
				t.Fatalf("request %d: %d %s", j, status, body)
			}
			bodies[i][j] = body
		}
		if subscribe && s.Events().Len() < 10 {
			t.Fatalf("the subscribed server recorded %d events", s.Events().Len())
		}
	}
	for j, name := range []string{"run", "sweep"} {
		if !bytes.Equal(bodies[0][j], bodies[1][j]) {
			t.Errorf("%s body differs with a subscriber:\n%s\n%s", name, bodies[0][j], bodies[1][j])
		}
	}
}

// TestReadyzBreakerOpen: an open circuit breaker makes the instance
// unready (route elsewhere) while liveness stays green (do not restart).
func TestReadyzBreakerOpen(t *testing.T) {
	s, ts := testServer(t, Config{BreakerThreshold: 2})
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before trip: %d, want 200", status)
	}

	s.breaker.mu.Lock()
	s.breaker.trip()
	s.breaker.mu.Unlock()

	status, body := get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with breaker open: %d %s, want 503", status, body)
	}
	var rz ReadyzResponse
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatalf("readyz body: %v (%s)", err, body)
	}
	if rz.Ready {
		t.Error("body says ready under an open breaker")
	}
	found := false
	for _, r := range rz.Reasons {
		if strings.Contains(r, "breaker") {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons %v do not mention the breaker", rz.Reasons)
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz went unhealthy with the breaker open (liveness must not gate on readiness)")
	}

	// The transition itself landed in the event stream.
	foundEv := false
	for _, ev := range s.Events().Events() {
		if ev.Name == "breaker.transition" {
			foundEv = true
		}
	}
	if !foundEv {
		t.Error("no breaker.transition event in the event stream")
	}
}

// TestDiagnosticsBundle: GET /debug/bundle yields one tar.gz whose
// members all parse — JSON documents decode, the metrics exposition has
// TYPE lines, the event log is valid JSONL, and the pprof profiles are
// non-empty.
func TestDiagnosticsBundle(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Computed, then recalled: two request traces of different shapes.
	for i := 0; i < 2; i++ {
		if status, body := post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: smallAccesses}); status != http.StatusOK {
			t.Fatalf("run: %d %s", status, body)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatalf("GET /debug/bundle: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("bundle content type = %q", ct)
	}

	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	members := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading tar: %v", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("reading member %s: %v", hdr.Name, err)
		}
		members[hdr.Name] = data
	}

	for _, name := range []string{"meta.json", "config.json", "stats.json"} {
		data, ok := members[name]
		if !ok {
			t.Fatalf("bundle lacks %s (have %v)", name, memberNames(members))
		}
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
	if !strings.Contains(string(members["metrics.prom"]), "# TYPE") {
		t.Error("metrics.prom has no TYPE lines")
	}
	evl, ok := members["events.jsonl"]
	if !ok {
		t.Fatalf("bundle lacks events.jsonl (have %v)", memberNames(members))
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(evl)), "\n") {
		if line == "" {
			continue
		}
		var rec otrace.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Seq == 0 || rec.Name == "" {
			t.Fatalf("events.jsonl line is not a trace record: %v (%s)", err, line)
		}
		lines++
	}
	if lines == 0 {
		t.Error("events.jsonl is empty after a completed run")
	}
	for _, prof := range []string{"goroutine.pprof", "heap.pprof"} {
		if len(members[prof]) == 0 {
			t.Errorf("%s is missing or empty", prof)
		}
	}
	// The runs above were traced (tracing is on by default), so their
	// trace documents ride along, parse, and equal what GET
	// /v1/trace/{id} renders for the same request.
	traced := 0
	for name, data := range members {
		id, ok := strings.CutPrefix(name, "traces/")
		if !ok {
			continue
		}
		traced++
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
		status, body := get(t, ts.URL+"/v1/trace/"+strings.TrimSuffix(id, ".json"))
		if status != http.StatusOK || !bytes.Equal(body, data) {
			t.Errorf("%s differs from GET /v1/trace (status %d):\n%s\n%s", name, status, data, body)
		}
	}
	if traced != 2 {
		t.Errorf("bundle carries %d request traces, want 2", traced)
	}
}

func memberNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	return names
}
