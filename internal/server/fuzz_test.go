package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/trace"
)

// FuzzRunBody drives arbitrary /v1/run bodies through the handler. The
// server must never panic or answer 5xx: a body it cannot serve is the
// client's error. It may answer 200 only to a body holding exactly one
// RunRequest. The server caps runs at 2000 accesses per core, and
// Validate caps the machine, so that even the largest valid body
// simulates in well under a second; seeds live in
// testdata/fuzz/FuzzRunBody.
func FuzzRunBody(f *testing.F) {
	s := New(Config{MaxAccesses: 2000})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("body %q: status %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && !oneRequest[RunRequest](body) {
			t.Fatalf("body %q is not exactly one RunRequest, yet was served 200", body)
		}
	})
}

// oneRequest reports whether body is one request of type T with known
// fields followed by nothing but JSON whitespace.
func oneRequest[T any](body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req T
	if dec.Decode(&req) != nil {
		return false
	}
	return strings.Trim(string(body[dec.InputOffset():]), " \t\r\n") == ""
}

// FuzzSweepBody is FuzzRunBody for /v1/sweep bodies: no panic, no 5xx,
// and a 200 only for a body holding exactly one SweepRequest. The server
// caps runs at 2000 accesses per core and admits at most 8 cells at
// once (a larger grid is a 429), so that every admitted sweep is short;
// seeds live in testdata/fuzz/FuzzSweepBody.
func FuzzSweepBody(f *testing.F) {
	s := New(Config{MaxAccesses: 2000, QueueDepth: 8, Jobs: 1})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("body %q: status %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && !oneRequest[SweepRequest](body) {
			t.Fatalf("body %q is not exactly one SweepRequest, yet was served 200", body)
		}
	})
}

// FuzzTracesBody drives arbitrary plain or gzipped bodies through
// /v1/traces uploads. The server must never panic or answer 5xx, and it
// may answer 200 only to a body that the trace codec (NewAutoReader and
// Drain) decodes to at least one and at most 92 records without error;
// the 200 must then report that record count. Uploads are bounded at
// 1 KiB, compressed and decoded (92 records), and kept in memory; seeds
// live in testdata/fuzz/FuzzTracesBody.
func FuzzTracesBody(f *testing.F) {
	s := New(Config{MaxTraceBytes: 1 << 10})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces?name=f", bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("body %q: status %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var records int
		if tr, err := trace.NewAutoReader(bytes.NewReader(body)); err == nil {
			records = len(trace.Drain(tr))
			if tr.Err() != nil {
				records = 0
			}
		}
		var resp TraceUploadResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: 200 with undecodable response %s", body, rec.Body)
		}
		if records == 0 || records > 92 || resp.Records != uint64(records) {
			t.Fatalf("body %q decodes to %d records (at most 92 fit the bound), yet was served 200 reporting %d", body, records, resp.Records)
		}
	})
}
