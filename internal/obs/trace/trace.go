// Package trace is a dependency-free execution tracer for the
// simulation stack: nested spans with attributes, propagated explicitly
// through context.Context, recorded into a bounded in-memory ring and
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) or a compact JSONL stream.
//
// Design:
//
//   - Zero overhead when disabled: the only cost on an un-traced path is
//     one atomic load (Tracer.Enabled) or one context value lookup that
//     finds no span — the same discipline as internal/fault's disarmed
//     fast path. A nil *Tracer and a nil *Span are valid receivers whose
//     methods no-op, so instrumentation points never branch.
//   - Bounded memory that costs what is recorded: events land in a ring
//     that starts empty and doubles on demand up to its capacity; once
//     full, the oldest event is overwritten and Dropped advances.
//     Eviction order is emission order — every surviving event's Seq is
//     larger than every dropped one's — which holds under concurrent
//     writers because Seq is assigned under the same mutex that advances
//     the ring cursor.
//   - Two time bases: wall-clock spans (HTTP requests, experiment
//     cells) record microseconds since the tracer's epoch on PidWall;
//     simulated-time events (internal/sim's interval telemetry) record
//     simulated cycles on PidSim, so a single file can carry both and
//     Perfetto renders them as separate processes.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Process IDs separating the two time bases in exported files.
const (
	// PidWall marks wall-clock events (ts/dur in microseconds).
	PidWall = 1
	// PidSim marks simulated-time events (ts/dur in simulated cycles,
	// rendered by trace viewers as if they were microseconds).
	PidSim = 2
)

// Event phases, following the Chrome trace-event format.
const (
	// PhaseSpan is a complete duration event (ph "X").
	PhaseSpan = 'X'
	// PhaseCounter is a counter sample (ph "C").
	PhaseCounter = 'C'
	// PhaseInstant is a zero-duration marker (ph "i").
	PhaseInstant = 'i'
)

// Attr is one key/value attribute on a span or counter event. Value must
// be a string, bool, or any integer/float type — the JSON exporters
// marshal it as-is.
type Attr struct {
	Key   string
	Value any
}

// Str, Int, Uint, Bool, and Float construct Attrs.
func Str(k, v string) Attr           { return Attr{Key: k, Value: v} }
func Int(k string, v int64) Attr     { return Attr{Key: k, Value: v} }
func Uint(k string, v uint64) Attr   { return Attr{Key: k, Value: v} }
func Bool(k string, v bool) Attr     { return Attr{Key: k, Value: v} }
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Event is one recorded trace event. Spans (PhaseSpan) carry Dur and the
// span/parent IDs; counters (PhaseCounter) carry numeric Attrs sampled
// at TS. Track is the trace viewer's thread lane (tid): sequential spans
// of one request share a track and nest by containment, concurrent
// cells get one track each.
type Event struct {
	Seq    uint64 // emission order, assigned by the tracer
	Phase  byte
	Name   string
	Pid    int
	Track  uint64
	TS     int64
	Dur    int64
	ID     uint64
	Parent uint64
	Attrs  []Attr
}

// Tracer records events into a bounded ring. Construct with New; a nil
// Tracer is valid and records nothing.
type Tracer struct {
	enabled atomic.Bool
	seq     atomic.Uint64 // span and event IDs
	epoch   time.Time

	mu sync.Mutex
	// buf holds the resident events. It grows by appending until it
	// reaches max; only then does the ring wrap, so while it grows the
	// oldest event is buf[0] and next stays 0.
	buf     []Event
	max     int // ring bound
	next    int // oldest event, overwritten by the next Emit once full
	dropped uint64
	tracks  map[trackKey]string // viewer lane names, emitted at export
}

type trackKey struct {
	pid   int
	track uint64
}

// DefaultCapacity is New's ring bound when capacity <= 0: enough for a
// long lapsim run (run + warmup + hundreds of epochs × several counter
// series × several policies). The ring grows on demand, so the bound
// costs a few MB only once that many events have been recorded.
const DefaultCapacity = 1 << 16

// minRing is the ring's first allocation, enough for a traced request's
// handful of spans.
const minRing = 8

// New returns an enabled tracer whose ring holds at most capacity
// events (capacity <= 0 selects DefaultCapacity). The ring is allocated
// as events arrive, doubling up to capacity, so a tracer costs what it
// records rather than its bound.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{
		epoch:  time.Now(),
		max:    capacity,
		tracks: map[trackKey]string{},
	}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether the tracer records events: one atomic load,
// nil-safe, the hot-path gate for every instrumentation point.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled arms or disarms the tracer. Disarmed tracers drop Emit and
// hand out nil spans; already-recorded events stay readable. Once
// SetEnabled(false) returns, the resident events no longer change: a
// span ending later, even one that passed the Enabled gate before the
// call, is not recorded.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.mu.Lock()
		t.enabled.Store(on)
		t.mu.Unlock()
	}
}

// Now returns the tracer's wall-clock timestamp: microseconds since the
// tracer was constructed.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Microseconds()
}

// NextID allocates a fresh span/track ID.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// NameTrack labels a (pid, track) lane for trace viewers ("LAP",
// "req-000003"). Exported as thread_name metadata.
func (t *Tracer) NameTrack(pid int, track uint64, name string) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	if t.enabled.Load() {
		t.tracks[trackKey{pid, track}] = name
	}
	t.mu.Unlock()
}

// Emit records one event, growing the ring up to its bound and then
// overwriting the oldest event. ev.Seq is assigned here; callers fill
// the rest.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled.Load() { // disarmed while this call waited for mu
		return
	}
	ev.Seq = t.seq.Add(1)
	if len(t.buf) < t.max {
		if len(t.buf) == cap(t.buf) {
			grown := make([]Event, len(t.buf), min(max(2*cap(t.buf), minRing), t.max))
			copy(grown, t.buf)
			t.buf = grown
		}
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % len(t.buf)
	t.dropped++
}

// Events returns the resident events, oldest first (ascending Seq).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Len reports the resident event count; Dropped the events evicted by
// the ring bound.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped reports how many events the ring bound evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is one in-flight wall-clock operation. Spans are created by Root
// and Start, carried in a context.Context, and recorded on End. A nil
// Span is valid: every method no-ops, which is how un-traced paths stay
// free.
type Span struct {
	t      *Tracer
	name   string
	id     uint64
	parent uint64
	track  uint64
	start  int64
	attrs  []Attr
}

type ctxKey struct{}

// WithSpan returns ctx carrying s as the current span.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns ctx's current span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Root opens a top-level span on its own viewer track and returns a ctx
// carrying it. Returns (ctx, nil) when the tracer is nil or disabled.
func (t *Tracer) Root(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	id := t.NextID()
	s := &Span{t: t, name: name, id: id, track: id, start: t.Now(), attrs: attrs}
	return WithSpan(ctx, s), s
}

// Start opens a child of ctx's current span, inheriting its track.
// Returns (ctx, nil) — zero further cost — when ctx carries no span.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || !parent.t.Enabled() {
		return ctx, nil
	}
	s := &Span{
		t: parent.t, name: name, id: parent.t.NextID(),
		parent: parent.id, track: parent.track,
		start: parent.t.Now(), attrs: attrs,
	}
	return WithSpan(ctx, s), s
}

// SetAttr appends attributes to the span (call before End).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// ID returns the span's ID (0 for a nil span) — correlate log records
// with trace spans through it.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End records the span as a complete event. Safe to call on a nil span;
// calling twice records twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.Emit(Event{
		Phase: PhaseSpan, Name: s.name, Pid: PidWall,
		Track: s.track, TS: s.start, Dur: s.t.Now() - s.start,
		ID: s.id, Parent: s.parent, Attrs: s.attrs,
	})
}
