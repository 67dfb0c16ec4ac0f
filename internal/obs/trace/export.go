package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one trace-event object in the Chrome/Perfetto JSON
// format: ph "X" for complete spans (ts+dur), "C" for counter samples,
// "M" for metadata. Span/parent IDs and user attributes travel in args.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the resident events as a Chrome trace-event
// JSON object ({"traceEvents": [...]}), loadable in Perfetto and
// chrome://tracing. Metadata events naming the processes (wall-clock vs
// simulated-cycles) and any named tracks come first, then the events in
// emission order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+8)
	out = append(out, metaEvent("process_name", PidWall, 0, "wall-clock"))
	out = append(out, metaEvent("process_name", PidSim, 0, "simulated-cycles"))
	out = append(out, trackMeta(t)...)
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name, Ph: string(ev.Phase), TS: ev.TS,
			Pid: ev.Pid, Tid: ev.Track,
		}
		switch ev.Phase {
		case PhaseSpan:
			dur := ev.Dur
			ce.Dur = &dur
			ce.Args = attrMap(ev.Attrs)
			if ce.Args == nil {
				ce.Args = map[string]any{}
			}
			ce.Args["span_id"] = ev.ID
			if ev.Parent != 0 {
				ce.Args["parent_id"] = ev.Parent
			}
		case PhaseCounter:
			// Distinct id per track so viewers draw one counter lane per
			// run rather than merging policies into one.
			ce.ID = fmt.Sprintf("%d", ev.Track)
			ce.Args = attrMap(ev.Attrs)
		default:
			ce.Args = attrMap(ev.Attrs)
		}
		out = append(out, ce)
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Unit        string        `json:"displayTimeUnit"`
	}{TraceEvents: out, Unit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// metaEvent builds a Chrome metadata record ("process_name",
// "thread_name").
func metaEvent(kind string, pid int, tid uint64, name string) chromeEvent {
	return chromeEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// trackMeta renders the tracer's named tracks as thread_name metadata,
// in deterministic order.
func trackMeta(t *Tracer) []chromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	keys := make([]trackKey, 0, len(t.tracks))
	for k := range t.tracks {
		keys = append(keys, k)
	}
	names := make(map[trackKey]string, len(t.tracks))
	for k, v := range t.tracks {
		names[k] = v
	}
	t.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].track < keys[j].track
	})
	out := make([]chromeEvent, 0, len(keys))
	for _, k := range keys {
		out = append(out, metaEvent("thread_name", k.pid, k.track, names[k]))
	}
	return out
}

// Record is an event's one wire form: a line of WriteJSONL, the data of
// a lapserved /v1/events frame and a line of its diagnostics bundle's
// events.jsonl. IDs are native, attrs a flat object.
type Record struct {
	Seq    uint64         `json:"seq"`
	Ph     string         `json:"ph"`
	Name   string         `json:"name"`
	Pid    int            `json:"pid"`
	Track  uint64         `json:"track"`
	TS     int64          `json:"ts"`
	Dur    int64          `json:"dur,omitempty"`
	ID     uint64         `json:"id,omitempty"`
	Parent uint64         `json:"parent,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Record returns ev's wire form.
func (ev Event) Record() Record {
	return Record{
		Seq: ev.Seq, Ph: string(ev.Phase), Name: ev.Name,
		Pid: ev.Pid, Track: ev.Track, TS: ev.TS, Dur: ev.Dur,
		ID: ev.ID, Parent: ev.Parent, Attrs: attrMap(ev.Attrs),
	}
}

// WriteJSONL renders the resident events as one Record per line, in
// emission order — the streaming-friendly export for log pipelines.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev.Record()); err != nil {
			return err
		}
	}
	return nil
}

// attrMap converts an attr list to a JSON object (encoding/json sorts
// map keys, so output is deterministic). Nil for no attrs.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// ChromeJSON renders WriteChromeTrace into memory — what lapserved
// serves for a stored request trace at GET /v1/trace/{id} and in
// /debug/bundle, rendered when read.
func (t *Tracer) ChromeJSON() []byte {
	var b bytes.Buffer
	if err := t.WriteChromeTrace(&b); err != nil {
		return nil
	}
	return b.Bytes()
}
