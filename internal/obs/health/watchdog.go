// Package health is lapserved's per-subsystem watchdog: probes that
// turn a stalled queue, a run past its deadline budget, an erroring
// checkpoint store or an open breaker into gauge flips, /readyz detail
// and transition events.
package health

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Status is one probe's verdict.
type Status struct {
	Healthy bool   `json:"healthy"`
	Detail  string `json:"detail,omitempty"`
}

// OK is the healthy Status.
func OK() Status { return Status{Healthy: true} }

// Degraded builds an unhealthy Status with a human-readable reason.
func Degraded(detail string) Status { return Status{Healthy: false, Detail: detail} }

// Watchdog periodically probes named subsystems (admission queue,
// deadline budget, checkpoint store, breaker, ...) and surfaces each as
// a 0/1 gauge plus an edge-triggered transition callback — the callback
// is how degradations become events without the probes knowing about
// the event stream.
//
// Add all checks, then Register, then Start. Probes run from a single
// goroutine; a probe may keep closure state (e.g. last-seen error
// counters) without locking.
type Watchdog struct {
	interval time.Duration
	onChange func(subsystem string, healthy bool, detail string)

	mu     sync.Mutex
	names  []string
	probes map[string]func() Status
	state  map[string]Status
	gauges map[string]*obs.Gauge

	stop chan struct{}
	done chan struct{}
}

// NewWatchdog builds a watchdog that probes every interval (<= 0
// selects 5s).
func NewWatchdog(interval time.Duration) *Watchdog {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &Watchdog{
		interval: interval,
		probes:   map[string]func() Status{},
		state:    map[string]Status{},
		gauges:   map[string]*obs.Gauge{},
	}
}

// Add registers a named probe. All probes start out healthy until the
// first evaluation. Must be called before Start.
func (w *Watchdog) Add(subsystem string, probe func() Status) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.probes[subsystem]; dup {
		panic("health: duplicate watchdog subsystem " + subsystem)
	}
	w.names = append(w.names, subsystem)
	w.probes[subsystem] = probe
	w.state[subsystem] = OK()
}

// OnTransition installs the edge-triggered callback, invoked (from the
// watchdog goroutine, or RunOnce's caller) whenever a subsystem flips
// between healthy and degraded. Must be set before Start.
func (w *Watchdog) OnTransition(fn func(subsystem string, healthy bool, detail string)) {
	w.onChange = fn
}

// Register creates one `<ns>_watchdog_healthy{subsystem=...}` gauge per
// check added so far, initialized to 1 (healthy).
func (w *Watchdog) Register(reg *obs.Registry, ns string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, name := range w.names {
		g := reg.Gauge(ns+"_watchdog_healthy",
			"Watchdog verdict per subsystem (1 healthy, 0 degraded).",
			obs.L("subsystem", name))
		g.Set(1)
		w.gauges[name] = g
	}
}

// RunOnce evaluates every probe immediately, updating gauges and firing
// transition callbacks. Exposed for tests and for callers wanting fresh
// state (e.g. a diagnostics bundle).
func (w *Watchdog) RunOnce() {
	w.mu.Lock()
	names := append([]string(nil), w.names...)
	w.mu.Unlock()
	for _, name := range names {
		w.mu.Lock()
		probe := w.probes[name]
		prev := w.state[name]
		w.mu.Unlock()
		st := probe()
		w.mu.Lock()
		w.state[name] = st
		g := w.gauges[name]
		w.mu.Unlock()
		if g != nil {
			if st.Healthy {
				g.Set(1)
			} else {
				g.Set(0)
			}
		}
		if st.Healthy != prev.Healthy && w.onChange != nil {
			w.onChange(name, st.Healthy, st.Detail)
		}
	}
}

// Start launches the probe loop. Stop() terminates it; Start after Stop
// is not supported.
func (w *Watchdog) Start() {
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.RunOnce()
			case <-w.stop:
				return
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it to exit. Safe to call
// when never started, and idempotent.
func (w *Watchdog) Stop() {
	if w.stop == nil {
		return
	}
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

// Snapshot returns the last evaluated status per subsystem.
func (w *Watchdog) Snapshot() map[string]Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]Status, len(w.state))
	for k, v := range w.state {
		out[k] = v
	}
	return out
}
