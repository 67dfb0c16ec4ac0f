package trace

import (
	"context"
	"errors"
	"strings"
)

// Instant records a zero-duration PhaseInstant event named name on
// PidWall at Now(): a lifecycle event ("run.start",
// "breaker.transition", "interval", ...) on the same ring, and in the
// same sequence, as the tracer's spans and counters. By convention the
// attr "run" names the simulation cell an event concerns, "trace_id"
// the request it belongs to, and "msg" a human-oriented summary.
func (t *Tracer) Instant(name string, attrs ...Attr) {
	if t.Enabled() {
		t.emit(Event{Phase: PhaseInstant, Name: name, Pid: PidWall, TS: t.Now(), Attrs: attrs}, t.gen.Load())
	}
}

// Streaming reports whether the tracer has a live subscriber: one
// atomic load, nil-safe, the gate high-rate producers (per-interval
// telemetry) check before building events.
func (t *Tracer) Streaming() bool { return t != nil && t.active.Load() > 0 }

// Filter selects the events a subscriber receives. The zero Filter
// matches everything.
type Filter struct {
	// Names, when non-empty, admits only events whose Name matches one
	// entry exactly, or by prefix when the entry ends in "*" ("run.*").
	Names []string
	// Run, when non-empty, admits only events whose "run" attr equals it.
	Run string
}

func (f Filter) match(ev Event) bool {
	if f.Run != "" && !hasAttr(ev.Attrs, "run", f.Run) {
		return false
	}
	if len(f.Names) == 0 {
		return true
	}
	for _, n := range f.Names {
		if p, ok := strings.CutSuffix(n, "*"); ok {
			if strings.HasPrefix(ev.Name, p) {
				return true
			}
		} else if n == ev.Name {
			return true
		}
	}
	return false
}

func hasAttr(attrs []Attr, key, v string) bool {
	for _, a := range attrs {
		if a.Key == key {
			return a.kind == kindStr && a.str == v
		}
	}
	return false
}

// DefaultSubscriberBuffer bounds a subscriber's queue when Subscribe is
// given buffer <= 0.
const DefaultSubscriberBuffer = 1024

// ErrClosed is returned by Subscriber.Next after Close once the queue
// has drained.
var ErrClosed = errors.New("trace: subscriber closed")

// Subscriber is one live consumer of a tracer's events: a bounded queue
// that emit fills and Next drains. Its state is guarded by the tracer's
// mutex; notify wakes a blocked Next.
type Subscriber struct {
	t      *Tracer
	filter Filter
	max    int
	queue  []Event
	drops  uint64 // dropped-oldest since the last Next
	closed bool
	notify chan struct{}
}

// Subscribe registers a consumer. from > 0 first replays the resident
// events with Seq >= from that match f (a reconnecting client passes
// last-seen+1); buffer bounds the queue (<= 0 selects
// DefaultSubscriberBuffer), which drops its oldest event when full, so
// emitters never block. The subscriber must be Closed. On a nil tracer
// it is already closed.
func (t *Tracer) Subscribe(buffer int, from uint64, f Filter) *Subscriber {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscriber{t: t, filter: f, max: buffer, notify: make(chan struct{}, 1)}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from > 0 {
		for _, part := range [2][]Event{t.buf[t.next:], t.buf[:t.next]} {
			for _, ev := range part {
				if ev.Seq >= from && f.match(ev) {
					s.push(ev)
				}
			}
		}
	}
	if t.subs == nil {
		t.subs = map[*Subscriber]struct{}{}
	}
	t.subs[s] = struct{}{}
	t.active.Add(1)
	return s
}

// fanOut queues ev on every matching subscriber; the caller holds t.mu.
func (t *Tracer) fanOut(ev Event) {
	for s := range t.subs {
		if s.filter.match(ev) {
			s.push(ev)
		}
	}
}

// push appends ev to the queue, dropping the oldest event when full.
// The caller holds the tracer's mutex.
func (s *Subscriber) push(ev Event) {
	if len(s.queue) >= s.max {
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = ev
		s.drops++
		s.t.subDropped++
	} else {
		s.queue = append(s.queue, ev)
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until events are queued, then returns them all, with the
// number of events dropped from this subscriber's queue since the
// previous Next. It returns ctx.Err() when ctx ends first, and ErrClosed
// once the subscriber is closed and drained.
func (s *Subscriber) Next(ctx context.Context) ([]Event, uint64, error) {
	for s.t != nil {
		s.t.mu.Lock()
		batch, drops, closed := s.queue, s.drops, s.closed
		s.queue, s.drops = nil, 0
		s.t.mu.Unlock()
		if len(batch) > 0 {
			return batch, drops, nil
		}
		if closed {
			break
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	return nil, 0, ErrClosed
}

// Close unregisters the subscriber. Queued events stay drainable by
// Next; then Next reports ErrClosed. Idempotent.
func (s *Subscriber) Close() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if _, live := s.t.subs[s]; live {
		delete(s.t.subs, s)
		s.t.active.Add(-1)
	}
	s.closed = true
	s.t.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// CloseSubscribers closes every live subscriber; each drains its queue,
// then sees ErrClosed. The tracer keeps recording.
func (t *Tracer) CloseSubscribers() {
	if t == nil {
		return
	}
	t.mu.Lock()
	subs := make([]*Subscriber, 0, len(t.subs))
	for s := range t.subs {
		subs = append(subs, s)
	}
	t.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// Subscribers reports the live subscriber count and how many events
// full subscriber queues have dropped.
func (t *Tracer) Subscribers() (live int, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs), t.subDropped
}
