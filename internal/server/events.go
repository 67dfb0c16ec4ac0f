package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	otrace "repro/internal/obs/trace"
)

// eventsHeartbeat is the idle keepalive period for /v1/events streams:
// a comment line every so often keeps proxies from reaping a quiet
// connection and lets the server notice a dead client.
const eventsHeartbeat = 15 * time.Second

// handleEvents streams the events tracer as Server-Sent Events. Each
// event is one SSE frame (`id:` = its Seq, `event:` = its name, `data:`
// = its otrace.Record, whose ts counts microseconds since the server
// started), so a reconnecting client resumes from Last-Event-ID (or an
// explicit ?from=seq) and observes strictly increasing sequence
// numbers — a gap means the ring evicted events while it was away.
//
// Filters: ?kind=run.*,breaker.transition (comma-separated event names,
// trailing-* prefix match) and ?run=workload|policy (the "run" attr)
// narrow the stream server-side.
// A slow consumer never blocks emitters: its bounded queue drops oldest
// events, and the drop count is reported in-stream as a comment before
// the next batch.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	var f otrace.Filter
	if kinds := r.URL.Query().Get("kind"); kinds != "" {
		for _, k := range strings.Split(kinds, ",") {
			if k = strings.TrimSpace(k); k != "" {
				f.Names = append(f.Names, k)
			}
		}
	}
	f.Run = r.URL.Query().Get("run")

	// Resume point: an explicit ?from= wins, else Last-Event-ID + 1
	// (the header names the last event the client got).
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "from must be an unsigned integer"})
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			from = n + 1
		}
	}

	sub := s.events.Subscribe(0, from, f)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // nginx: do not buffer the stream
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": lapserved event stream\n\n")
	flusher.Flush()

	ctx := r.Context()
	for {
		// Bound each wait so idle streams heartbeat; only the child
		// deadline distinguishes "quiet" from "client gone".
		wctx, cancel := context.WithTimeout(ctx, eventsHeartbeat)
		batch, drops, err := sub.Next(wctx)
		cancel()
		switch {
		case err == nil:
		case errors.Is(err, otrace.ErrClosed):
			// Server shutdown (CloseSubscribers): the queue is drained,
			// end the stream cleanly.
			return
		case ctx.Err() != nil:
			return // client disconnected
		default:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
			continue
		}
		if drops > 0 {
			fmt.Fprintf(w, ": dropped %d events (slow consumer)\n\n", drops)
		}
		for _, ev := range batch {
			data, merr := json.Marshal(ev.Record())
			if merr != nil {
				continue // a NaN or Inf attr does not encode; skip the frame
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, data)
		}
		flusher.Flush()
	}
}
