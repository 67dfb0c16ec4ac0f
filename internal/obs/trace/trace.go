// Package trace is the tree's one event ring: a dependency-free tracer
// for nested spans with attributes, propagated explicitly through
// context.Context, counter samples and instant (lifecycle) events,
// recorded into a bounded in-memory ring, fanned out to live
// subscribers, and exported as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing) or as JSONL Records.
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
//   - Live subscribers (stream.go): Subscribe replays resident events
//     from a sequence number and then receives each new matching event
//     through a bounded drop-oldest queue that emit fills under the
//     mutex it already holds, so emitters never block. A tracer without
//     subscribers pays one length check per event, and Streaming, the
//     gate for high-rate producers, is one atomic load.
package trace

import (
	"context"
	"math"
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

// Attr is one key/value attribute on a span or counter event: a string,
// bool, integer or float held unboxed, so building one allocates
// nothing. Value returns it as the JSON exporters marshal it.
type Attr struct {
	Key  string
	kind attrKind
	num  uint64 // Int, Uint, Bool (0 or 1) and Float (IEEE bits) values
	str  string
}

type attrKind uint8

const (
	kindStr attrKind = iota
	kindInt
	kindUint
	kindBool
	kindFloat
)

// Str, Int, Uint, Bool, and Float construct Attrs.
func Str(k, v string) Attr           { return Attr{Key: k, kind: kindStr, str: v} }
func Int(k string, v int64) Attr     { return Attr{Key: k, kind: kindInt, num: uint64(v)} }
func Uint(k string, v uint64) Attr   { return Attr{Key: k, kind: kindUint, num: v} }
func Float(k string, v float64) Attr { return Attr{Key: k, kind: kindFloat, num: math.Float64bits(v)} }
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Value returns the attribute's value as a string, int64, uint64, bool
// or float64.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return int64(a.num)
	case kindUint:
		return a.num
	case kindBool:
		return a.num != 0
	case kindFloat:
		return math.Float64frombits(a.num)
	}
	return a.str
}

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
	gen     atomic.Uint64 // advanced by Reset; older spans record nothing
	epoch   time.Time
	zero    atomic.Int64 // Now's origin in µs since epoch, moved by Reset
	active  atomic.Int32 // live subscribers, read by Streaming

	mu sync.Mutex
	// buf holds the resident events. It grows by appending until it
	// reaches max; only then does the ring wrap, so while it grows the
	// oldest event is buf[0] and next stays 0.
	buf     []Event
	max     int // ring bound
	next    int // oldest event, overwritten by the next Emit once full
	dropped uint64
	tracks  map[trackKey]string // viewer lane names, emitted at export

	subs       map[*Subscriber]struct{}
	subDropped uint64 // events dropped from full subscriber queues
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

// keepRing bounds the ring storage Reset keeps for reuse: a request
// that recorded more gives its ring back to the garbage collector, so a
// recycled tracer costs what a typical request records.
const keepRing = 64

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

// Reset readies a tracer that nothing else records into for reuse, as
// if it were new: it drops the resident events and track names,
// restarts IDs, Seq and the clock, and arms the tracer. A span opened
// before the reset records nothing, even if it ends after it. The ring
// keeps its storage up to keepRing events. Subscribers are not reset:
// a tracer that is reused has none.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.buf) > keepRing {
		t.buf = nil
	} else {
		clear(t.buf)
		t.buf = t.buf[:0]
	}
	t.next, t.dropped = 0, 0
	clear(t.tracks)
	t.seq.Store(0)
	t.gen.Add(1)
	t.zero.Store(time.Since(t.epoch).Microseconds())
	t.enabled.Store(true)
}

// Now returns the tracer's wall-clock timestamp: microseconds since the
// tracer was constructed or last Reset.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Microseconds() - t.zero.Load()
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
	if t.Enabled() {
		t.emit(ev, t.gen.Load())
	}
}

// emit records ev for generation gen of the tracer.
func (t *Tracer) emit(ev Event, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled.Load() || t.gen.Load() != gen { // disarmed or Reset while this call waited for mu
		return
	}
	ev.Seq = t.seq.Add(1)
	if len(t.subs) > 0 {
		t.fanOut(ev)
	}
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
	gen    uint64 // the tracer's generation when the span opened
	name   string
	id     uint64
	parent uint64
	track  uint64
	start  int64
	attrs  []Attr
	inline [spanAttrs]Attr // attrs' storage while the span has few
}

// spanAttrs is how many attributes a span holds without allocating: a
// request's root span and a retry attempt carry four each.
const spanAttrs = 4

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
	s := t.open(name, id, 0, id, t.gen.Load(), attrs)
	return WithSpan(ctx, s), s
}

// open starts a span of generation gen, copying its attributes.
func (t *Tracer) open(name string, id, parent, track, gen uint64, attrs []Attr) *Span {
	s := &Span{t: t, gen: gen, name: name, id: id, parent: parent, track: track}
	s.attrs = append(s.inline[:0], attrs...)
	s.start = t.Now()
	return s
}

// Start opens a child of ctx's current span, inheriting its track.
// Returns (ctx, nil) — zero further cost — when ctx carries no span.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	s := FromContext(ctx).Child(name, attrs...)
	return WithSpan(ctx, s), s
}

// Child opens a child of s on s's track without building a context: a
// leaf span needs none, and a caller that needs one only sometimes
// attaches the span with WithSpan then. Nil when s is nil, its tracer
// is disarmed, or its tracer was Reset after s opened.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil || !s.t.Enabled() || s.t.gen.Load() != s.gen {
		return nil
	}
	return s.t.open(name, s.t.NextID(), s.id, s.track, s.gen, attrs)
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
	if s == nil || !s.t.Enabled() {
		return
	}
	s.t.emit(Event{
		Phase: PhaseSpan, Name: s.name, Pid: PidWall,
		Track: s.track, TS: s.start, Dur: s.t.Now() - s.start,
		ID: s.id, Parent: s.parent, Attrs: s.attrs,
	}, s.gen)
}
