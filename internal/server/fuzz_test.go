package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	lap "repro"
)

// FuzzRunBody drives arbitrary /v1/run bodies through the handler. The
// server must never panic or answer 5xx: a body it cannot serve is the
// client's error. It may answer 200 only to a body holding exactly one
// RunRequest. The server caps runs at 2000 accesses per core so that
// valid bodies simulate in milliseconds; seeds live in
// testdata/fuzz/FuzzRunBody.
func FuzzRunBody(f *testing.F) {
	s := New(Config{MaxAccesses: 2000})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if costly(body) {
			t.Skip("machine too large to simulate quickly")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("body %q: status %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && !oneRunRequest(body) {
			t.Fatalf("body %q is not exactly one RunRequest, yet was served 200", body)
		}
	})
}

// oneRunRequest reports whether body is one RunRequest with known
// fields followed by nothing but JSON whitespace.
func oneRunRequest(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req RunRequest
	if dec.Decode(&req) != nil {
		return false
	}
	return strings.Trim(string(body[dec.InputOffset():]), " \t\r\n") == ""
}

// costly reports bodies whose machine would take the fuzzer seconds to
// simulate even at 2000 accesses per core: many cores or threads, deep
// prefetching, or caches far larger or more associative than Table
// II's. The server accepts them (Validate bounds none of these).
func costly(body []byte) bool {
	var req RunRequest
	if json.Unmarshal(body, &req) != nil {
		return false
	}
	cfg, err := lap.ParseConfig(req.Config)
	if err != nil {
		return false
	}
	const bigCache, manyWays = 64 << 20, 64
	return cfg.Cores > 16 || req.Threads > 16 || cfg.PrefetchDegree > 16 ||
		cfg.L1SizeBytes > bigCache || cfg.L2SizeBytes > bigCache || cfg.L3SizeBytes > bigCache ||
		cfg.L1Ways > manyWays || cfg.L2Ways > manyWays || cfg.L3Ways > manyWays
}
