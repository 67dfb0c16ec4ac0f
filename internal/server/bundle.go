package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// bundleTraceMax bounds how many recent request traces ride in one
// diagnostics bundle.
const bundleTraceMax = 16

// bundleMeta is the bundle's self-description (meta.json).
type bundleMeta struct {
	GeneratedAt  string  `json:"generated_at"`
	GoVersion    string  `json:"go_version"`
	PID          int     `json:"pid"`
	UptimeSec    float64 `json:"uptime_sec"`
	NumGoroutine int     `json:"num_goroutine"`
}

// resolvedConfig is the server's effective configuration after
// defaulting, shaped for the bundle (config.json). Pointer-valued
// Config fields (registry, logger, checkpoint store) render as
// attached/not-attached booleans.
type resolvedConfig struct {
	Jobs                int     `json:"jobs"`
	QueueDepth          int     `json:"queue_depth"`
	RequestTimeoutSec   float64 `json:"request_timeout_sec"`
	MemoEntries         int     `json:"memo_entries"`
	MaxTraceBytes       int64   `json:"max_trace_bytes"`
	MaxAccesses         uint64  `json:"max_accesses"`
	RetryMax            int     `json:"retry_max"`
	RetryBackoffMS      float64 `json:"retry_backoff_ms"`
	BreakerThreshold    int     `json:"breaker_threshold"`
	BreakerCooldownMS   float64 `json:"breaker_cooldown_ms"`
	TraceRequests       int     `json:"trace_requests"`
	TraceDir            string  `json:"trace_dir,omitempty"`
	TraceStoreDir       string  `json:"trace_store_dir,omitempty"`
	CheckpointStore     bool    `json:"checkpoint_store"`
	CheckpointEvery     uint64  `json:"checkpoint_every"`
	JournalCapacity     int     `json:"journal_capacity"`
	WatchdogIntervalMS  float64 `json:"watchdog_interval_ms"`
	SLOObjective        float64 `json:"slo_objective"`
	SLOLatencyTargetSec float64 `json:"slo_latency_target_sec"`
}

// handleBundle serves GET /debug/bundle: one tar.gz snapshot of
// everything a support engineer asks for first — metrics exposition,
// recent journal events, recent request traces, the resolved config,
// /v1/stats (checkpoint-store stats included), and goroutine/heap pprof
// profiles — assembled in memory so a sick server never half-writes a
// bundle to disk.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	now := time.Now()
	add := func(name string, data []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: now,
		}); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	addJSON := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return add(name, append(data, '\n'))
	}

	err := func() error {
		if err := addJSON("meta.json", bundleMeta{
			GeneratedAt:  now.UTC().Format(time.RFC3339Nano),
			GoVersion:    runtime.Version(),
			PID:          os.Getpid(),
			UptimeSec:    now.Sub(s.started).Seconds(),
			NumGoroutine: runtime.NumGoroutine(),
		}); err != nil {
			return err
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			if err := add("buildinfo.txt", []byte(bi.String())); err != nil {
				return err
			}
		}
		cfg := s.cfg
		if err := addJSON("config.json", resolvedConfig{
			Jobs:                cfg.Jobs,
			QueueDepth:          cfg.QueueDepth,
			RequestTimeoutSec:   cfg.RequestTimeout.Seconds(),
			MemoEntries:         cfg.MemoEntries,
			MaxTraceBytes:       cfg.MaxTraceBytes,
			MaxAccesses:         cfg.MaxAccesses,
			RetryMax:            cfg.RetryMax,
			RetryBackoffMS:      float64(cfg.RetryBackoff) / float64(time.Millisecond),
			BreakerThreshold:    cfg.BreakerThreshold,
			BreakerCooldownMS:   float64(cfg.BreakerCooldown) / float64(time.Millisecond),
			TraceRequests:       cfg.TraceRequests,
			TraceDir:            cfg.TraceDir,
			TraceStoreDir:       cfg.TraceStoreDir,
			CheckpointStore:     cfg.Checkpoints != nil,
			CheckpointEvery:     cfg.CheckpointEvery,
			JournalCapacity:     cfg.JournalCapacity,
			WatchdogIntervalMS:  float64(cfg.WatchdogInterval) / float64(time.Millisecond),
			SLOObjective:        s.slo.Config().Objective,
			SLOLatencyTargetSec: s.slo.Config().LatencyTarget.Seconds(),
		}); err != nil {
			return err
		}
		var mb bytes.Buffer
		if _, err := s.met.reg.WriteTo(&mb); err != nil {
			return err
		}
		if err := add("metrics.prom", mb.Bytes()); err != nil {
			return err
		}
		if err := addJSON("stats.json", s.statsSnapshot()); err != nil {
			return err
		}
		if s.journal != nil {
			var eb bytes.Buffer
			for _, e := range s.journal.Recent(0) {
				line, merr := json.Marshal(e)
				if merr != nil {
					continue
				}
				eb.Write(line)
				eb.WriteByte('\n')
			}
			if err := add("events.jsonl", eb.Bytes()); err != nil {
				return err
			}
		}
		if s.traces != nil {
			for _, t := range s.traces.recent(bundleTraceMax) {
				if err := add("traces/"+t.id+".json", t.tr.ChromeJSON()); err != nil {
					return err
				}
			}
		}
		for _, prof := range []string{"goroutine", "heap"} {
			var pb bytes.Buffer
			if p := pprof.Lookup(prof); p != nil {
				if err := p.WriteTo(&pb, 0); err != nil {
					return err
				}
			}
			if err := add(prof+".pprof", pb.Bytes()); err != nil {
				return err
			}
		}
		if err := tw.Close(); err != nil {
			return err
		}
		return gz.Close()
	}()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "assembling bundle: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="lapserved-bundle-%s.tar.gz"`, now.UTC().Format("20060102-150405")))
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Write(buf.Bytes())
}
