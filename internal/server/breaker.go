package server

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// breakerState is the circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (st breakerState) String() string {
	switch st {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breakerMetrics is the breaker's optional obs wiring. The counters are
// nil-safe, so a breaker constructed without a registry (unit tests)
// records nothing and pays a nil check per transition.
type breakerMetrics struct {
	toOpen     *obs.Counter
	toHalfOpen *obs.Counter
	toClosed   *obs.Counter
	shed       *obs.Counter
}

// breaker is a consecutive-failure circuit breaker over the server's
// simulation path. Closed, it counts consecutive run failures; at
// threshold it opens and the server sheds new simulation requests with
// 503 + Retry-After for cooldown. After the cooldown one probe request
// is admitted (half-open): its success closes the breaker, its failure
// re-opens it. A threshold <= 0 disables the breaker entirely.
//
// Only conclusive *executions* move the state. Cancellations, drain
// refusals, and queue timeouts say nothing about whether the simulator
// is healthy, and neither do memo recalls (they executed no simulation)
// — both release the half-open probe slot (probeDone) without moving the
// state. Symmetrically, a success or failure from a request admitted
// *before* the breaker tripped arrives while the state is open and is
// ignored: the cooldown stands, and only the half-open probe decides
// what happens next.
type breaker struct {
	threshold int
	cooldown  time.Duration
	met       breakerMetrics
	// onTransition, when set, hears every state change with the
	// destination state's name ("open", "half-open", "closed") — how
	// transitions become events. Called with b.mu held, so it
	// must not call back into the breaker.
	onTransition func(to string)

	mu         sync.Mutex
	state      breakerState
	fails      int  // consecutive failures while closed
	probing    bool // a half-open probe is in flight
	openedAt   time.Time
	probeStart time.Time // when the in-flight probe was admitted
	opens      uint64    // times the breaker tripped open
	shed       uint64    // requests refused while open/half-open
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a new simulation request may proceed. When it
// may not, the remaining wait is returned for a Retry-After header:
// the remaining cooldown while open, the remaining probe window while a
// half-open probe is in flight.
func (b *breaker) allow() (bool, time.Duration) {
	if b.threshold <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if rem := b.cooldown - time.Since(b.openedAt); rem > 0 {
			b.shedLocked()
			return false, rem
		}
		// Cooldown over: admit exactly one probe.
		b.state = breakerHalfOpen
		b.met.toHalfOpen.Inc()
		b.notifyLocked("half-open")
		b.probing = true
		b.probeStart = time.Now()
		return true, 0
	case breakerHalfOpen:
		if b.probing {
			b.shedLocked()
			// The probe decides within roughly one more cooldown window;
			// advertise what is left of it, not a fresh full cooldown.
			rem := b.cooldown - time.Since(b.probeStart)
			if rem < 0 {
				rem = 0
			}
			return false, rem
		}
		b.probing = true
		b.probeStart = time.Now()
		return true, 0
	}
	return true, 0
}

// success records a healthy *executed* run. It closes the breaker from
// half-open (the probe passed) and resets the failure streak while
// closed. While open it is ignored: the success belongs to a request
// admitted before the trip and proves nothing about current health — the
// cooldown stands (the guard is symmetric with failure's "already open:
// changes nothing").
func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return
	case breakerHalfOpen:
		b.state = breakerClosed
		b.met.toClosed.Inc()
		b.notifyLocked("closed")
	}
	b.fails = 0
	b.probing = false
}

// failure records a run failure, tripping the breaker at threshold (or
// immediately when a half-open probe fails).
func (b *breaker) failure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trip()
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	}
	// Already open: the failure belongs to a request admitted before the
	// trip; it changes nothing.
}

// probeDone releases the half-open probe slot after an inconclusive
// outcome (cancel, drain, queue timeout, memo recall) without moving the
// state.
func (b *breaker) probeDone() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// notifyLocked reports one transition to the optional hook; the caller
// holds b.mu.
func (b *breaker) notifyLocked(to string) {
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// trip opens the breaker; the caller holds b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.met.toOpen.Inc()
	b.notifyLocked("open")
	b.fails = 0
	b.probing = false
	b.openedAt = time.Now()
	b.opens++
}

// shedLocked counts one refused request; the caller holds b.mu.
func (b *breaker) shedLocked() {
	b.shed++
	b.met.shed.Inc()
}

// stateValue maps the breaker position onto the metrics gauge encoding:
// -1 disabled, 0 closed, 1 open, 2 half-open.
func (b *breaker) stateValue() float64 {
	if b.threshold <= 0 {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return 1
	case breakerHalfOpen:
		return 2
	}
	return 0
}

// breakerStats is the /v1/stats snapshot of the breaker.
type breakerStats struct {
	state string
	opens uint64
	shed  uint64
}

func (b *breaker) snapshot() breakerStats {
	if b.threshold <= 0 {
		return breakerStats{state: "disabled"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStats{state: b.state.String(), opens: b.opens, shed: b.shed}
}
