package server

import (
	"archive/tar"
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/journal"
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

// waitSubscribers polls /v1/stats until the journal reports n live
// subscribers, so a test can order "subscribe" before "run".
func waitSubscribers(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := getStats(t, base)
		if st.Events != nil && st.Events.Subscribers >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("journal never reached %d subscribers", n)
}

// TestEventsSSELifecycle: a live subscriber sees the run lifecycle —
// run.start, per-interval telemetry, run.finish — as ordered SSE frames
// with strictly increasing sequence IDs, and the event payloads carry
// the run key and the request's trace ID.
func TestEventsSSELifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := openSSE(t, ts.URL+"/v1/events", "")
	waitSubscribers(t, ts.URL, 1)

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

	// Events decode as journal.Event and correlate: run key on every
	// lifecycle frame, the request's trace ID threaded through.
	for _, f := range frames {
		var e journal.Event
		if err := json.Unmarshal(f.data, &e); err != nil {
			t.Fatalf("frame %d (%s) data is not a journal event: %v", f.id, f.event, err)
		}
		if e.Seq != f.id || e.Kind != f.event {
			t.Fatalf("frame %d/%s disagrees with payload %d/%s", f.id, f.event, e.Seq, e.Kind)
		}
		if f.event == "run.start" {
			if e.Run == "" {
				t.Error("run.start event lacks a run key")
			}
			if tid != "" && e.Trace != tid {
				t.Errorf("run.start trace = %q, want %q", e.Trace, tid)
			}
		}
	}
}

// TestEventsSSEReplay: a reconnecting client presenting Last-Event-ID
// replays the retained suffix with monotone sequence numbers, and
// ?kind= filters narrow the stream server-side.
func TestEventsSSEReplay(t *testing.T) {
	_, ts := testServer(t, Config{})
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
	waitSubscribers(t, ts.URL, 1)
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

	// The transition itself landed in the journal.
	foundEv := false
	for _, e := range s.journal.Recent(0) {
		if e.Kind == "breaker.transition" {
			foundEv = true
		}
	}
	if !foundEv {
		t.Error("no breaker.transition event in the journal")
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
		var e journal.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("events.jsonl line does not parse: %v (%s)", err, line)
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
