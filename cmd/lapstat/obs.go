package main

import (
	"archive/tar"
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	otrace "repro/internal/obs/trace"
)

// bundleEventTail bounds how many events the bundle summary prints; the
// full log stays in events.jsonl for jq.
const bundleEventTail = 15

// printBundle un-tars a lapserved diagnostics bundle (GET /debug/bundle)
// and prints an operator-oriented summary: what is inside, where the
// snapshot came from, the health numbers that matter, and the tail of
// the event log. It exits non-zero if the archive or any JSON member
// fails to parse — so it doubles as a bundle validator.
func printBundle(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s is not gzip: %w", path, err)
	}
	tr := tar.NewReader(gz)
	members := map[string][]byte{}
	var names []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading archive: %w", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return fmt.Errorf("reading %s: %w", hdr.Name, err)
		}
		members[hdr.Name] = data
		names = append(names, hdr.Name)
	}
	sort.Strings(names)

	fmt.Printf("bundle %s: %d members\n", path, len(names))
	for _, n := range names {
		fmt.Printf("  %-24s %7d bytes\n", n, len(members[n]))
	}

	// Every JSON member must parse; a bundle with corrupt members is
	// worth knowing about before someone greps it at 3am.
	for _, n := range names {
		if strings.HasSuffix(n, ".json") {
			var v any
			if err := json.Unmarshal(members[n], &v); err != nil {
				return fmt.Errorf("%s does not parse: %w", n, err)
			}
		}
	}

	if data, ok := members["meta.json"]; ok {
		var meta struct {
			GeneratedAt  string  `json:"generated_at"`
			GoVersion    string  `json:"go_version"`
			PID          int     `json:"pid"`
			UptimeSec    float64 `json:"uptime_sec"`
			NumGoroutine int     `json:"num_goroutine"`
		}
		if err := json.Unmarshal(data, &meta); err == nil {
			fmt.Printf("\ncaptured %s  pid %d  up %s  %d goroutines  %s\n",
				meta.GeneratedAt, meta.PID,
				(time.Duration(meta.UptimeSec * float64(time.Second))).Round(time.Second),
				meta.NumGoroutine, meta.GoVersion)
		}
	}

	if data, ok := members["stats.json"]; ok {
		var st struct {
			Computed     uint64 `json:"computed"`
			Recalled     uint64 `json:"recalled"`
			Failures     uint64 `json:"failures"`
			BreakerState string `json:"breaker_state"`
		}
		if err := json.Unmarshal(data, &st); err == nil {
			fmt.Printf("runs: %d computed, %d recalled, %d failed; breaker %s\n",
				st.Computed, st.Recalled, st.Failures, st.BreakerState)
		}
	}

	if data, ok := members["events.jsonl"]; ok {
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var events []otrace.Record
		for _, line := range lines {
			if line == "" {
				continue
			}
			var e otrace.Record
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				return fmt.Errorf("events.jsonl line does not parse: %w", err)
			}
			events = append(events, e)
		}
		tail := events
		if len(tail) > bundleEventTail {
			tail = tail[len(tail)-bundleEventTail:]
		}
		fmt.Printf("\nlast %d of %d events:\n", len(tail), len(events))
		for _, e := range tail {
			fmt.Printf("  %s\n", formatEvent(e))
		}
	}
	return nil
}

// tailEvents connects to a lapserved instance and prints its /v1/events
// stream one line per event until the server closes it or the process is
// interrupted. kinds/run/from map straight onto the endpoint's filters.
func tailEvents(base, kinds, run string, from uint64) error {
	// A bare host:port parses as scheme "host"; require an explicit
	// http(s):// and default everything else onto http.
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return err
	}
	u.Path = "/v1/events"
	q := u.Query()
	if kinds != "" {
		q.Set("kind", kinds)
	}
	if run != "" {
		q.Set("run", run)
	}
	if from > 0 {
		q.Set("from", fmt.Sprint(from))
	}
	u.RawQuery = q.Encode()

	resp, err := http.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %d %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	fmt.Fprintf(os.Stderr, "lapstat: tailing %s\n", u)

	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return nil // server closed the stream (drain)
			}
			return err
		}
		line = strings.TrimRight(line, "\n")
		if !strings.HasPrefix(line, "data: ") {
			continue // ids/event names ride inside the JSON; comments are noise
		}
		var e otrace.Record
		if err := json.Unmarshal([]byte(line[6:]), &e); err != nil {
			fmt.Fprintf(os.Stderr, "lapstat: bad event frame: %v\n", err)
			continue
		}
		fmt.Println(formatEvent(e))
	}
}

// formatEvent renders one event record as a stable single line: time
// since the server started, sequence, name, then its attrs sorted by
// key.
func formatEvent(e otrace.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "+%.3fs #%d %-20s", float64(e.TS)/1e6, e.Seq, e.Name)
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if s, ok := e.Attrs[k].(string); ok {
			fmt.Fprintf(&b, " %s=%q", k, s)
		} else {
			fmt.Fprintf(&b, " %s=%v", k, e.Attrs[k])
		}
	}
	return b.String()
}
