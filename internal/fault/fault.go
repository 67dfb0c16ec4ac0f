// Package fault is a deterministic, seeded fault-injection registry for
// chaos testing the simulation service end to end. Code under test calls
// Inject at named points; operators (and chaos tests) arm specs against
// those points that return typed errors, panic, or delay — enabled via
// the LAP_FAULTS environment variable or programmatically, and zero-cost
// when nothing is armed (one atomic load per injection point hit).
//
// Determinism: a spec fires as a pure function of its own per-point hit
// counter (After/Count windows) and, for probabilistic specs, a seeded
// splitmix64 hash of the hit index — never of wall-clock time or global
// PRNG state. Two serial runs with the same armed specs and the same
// request order inject exactly the same faults.
//
// Spec string format (see Parse):
//
//	point[@match]:mode[:opt,opt...]
//
// where mode is error, panic, or delay, and the options are after=N
// (skip the first N matching hits), count=N (fire at most N times),
// p=F with seed=N (deterministic per-hit probability), and delay=DUR
// (sleep duration for delay mode). Multiple specs are separated by ';':
//
//	LAP_FAULTS='server.execute@WH1:panic;trace.decode:error:count=1'
package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar names the environment variable ArmFromEnv reads.
const EnvVar = "LAP_FAULTS"

// Canonical injection points threaded through the stack. Points are
// plain strings, so packages may define private ones; these are the
// sites the chaos suite drives.
const (
	// PointPoolTask fires around every internal/pool Run task.
	PointPoolTask = "pool.task"
	// PointExpRun fires inside one experiments simulation (key
	// "mix[members]|policy").
	PointExpRun = "experiments.run"
	// PointServerRun fires inside one lapserved simulation cell (key
	// "workload|policy").
	PointServerRun = "server.execute"
	// PointTraceDecode fires once per binary trace stream, at header
	// decode time.
	PointTraceDecode = "trace.decode"
	// PointCheckpointWrite fires before each checkpoint store write
	// (key "kind/config/workload").
	PointCheckpointWrite = "checkpoint.write"
	// PointCheckpointRead fires before each checkpoint file read (same
	// key as writes).
	PointCheckpointRead = "checkpoint.read"
	// PointCheckpointRestore fires before a loaded checkpoint is applied
	// to a machine, after it passed CRC validation.
	PointCheckpointRestore = "checkpoint.restore"
)

// Mode selects what an armed spec does when it fires.
type Mode int

const (
	// ModeError makes Inject return an *InjectedError.
	ModeError Mode = iota
	// ModePanic makes Inject panic with an *InjectedPanic.
	ModePanic
	// ModeDelay makes Inject sleep for Spec.Delay, then return nil.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Spec arms one fault against one injection point.
type Spec struct {
	// Point is the injection site name (required).
	Point string
	// Match restricts the spec to hits whose key contains it ("" matches
	// every hit), so one cell of a sweep can be targeted precisely.
	Match string
	// Mode is what happens when the spec fires.
	Mode Mode
	// After skips the first After matching hits.
	After uint64
	// Count caps how many times the spec fires (0 = unlimited).
	Count uint64
	// P is the per-hit firing probability in (0,1); 0 (or >= 1) fires on
	// every eligible hit. Derived deterministically from Seed and the hit
	// index.
	P float64
	// Seed seeds the probabilistic decision.
	Seed uint64
	// Delay is the sleep duration for ModeDelay (default 10ms).
	Delay time.Duration
}

// InjectedError is the typed error returned from an armed error point.
type InjectedError struct {
	Point string // the injection site that fired
	Key   string // the site key at the firing hit
	Hit   uint64 // the per-point matching-hit index (0-based)
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected error at %s (key %q, hit %d)", e.Point, e.Key, e.Hit)
}

// InjectedPanic is the value thrown from an armed panic point.
type InjectedPanic struct {
	Point string
	Key   string
	Hit   uint64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (key %q, hit %d)", p.Point, p.Key, p.Hit)
}

// armed is one registered spec plus its firing state.
type armed struct {
	spec  Spec
	hits  uint64 // matching hits observed
	fired uint64 // times the spec actually fired
}

var (
	mu     sync.Mutex
	points = map[string][]*armed{}
	// count mirrors the number of armed specs so Inject's fast path is a
	// single atomic load when nothing is armed.
	count atomic.Int32
	// observer, when set, is called on the firing goroutine each time a
	// spec actually fires (before the error/panic/delay takes effect).
	observer atomic.Pointer[func(point, key, mode string, hit uint64)]
)

// SetObserver installs (or, with nil, removes) a process-wide hook
// called whenever an armed spec fires — how fault hits become events
// without this package knowing about the event stream. The hook runs
// on the injecting goroutine and must not block. Off the fast path: the
// observer is consulted only after a spec has decided to fire.
func SetObserver(fn func(point, key, mode string, hit uint64)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

// Active reports whether any spec is armed. The registry is process
// global; production binaries never arm anything, so every injection
// point costs one atomic load.
func Active() bool { return count.Load() > 0 }

// Arm registers one spec.
func Arm(s Spec) error {
	if s.Point == "" {
		return fmt.Errorf("fault: spec needs a point name")
	}
	if s.Mode < ModeError || s.Mode > ModeDelay {
		return fmt.Errorf("fault: unknown mode %d", int(s.Mode))
	}
	if s.Mode == ModeDelay && s.Delay <= 0 {
		s.Delay = 10 * time.Millisecond
	}
	mu.Lock()
	points[s.Point] = append(points[s.Point], &armed{spec: s})
	mu.Unlock()
	count.Add(1)
	return nil
}

// Reset disarms everything and zeroes all counters.
func Reset() {
	mu.Lock()
	points = map[string][]*armed{}
	mu.Unlock()
	count.Store(0)
}

// Fired reports how many times specs at point have fired.
func Fired(point string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	var n uint64
	for _, a := range points[point] {
		n += a.fired
	}
	return n
}

// Hits reports how many matching hits specs at point have observed
// (fired or not).
func Hits(point string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	var n uint64
	for _, a := range points[point] {
		n += a.hits
	}
	return n
}

// Inject is the injection point hook. It returns nil immediately when
// nothing is armed; otherwise the first armed spec for point whose Match
// is contained in key and whose After/Count/P window admits this hit
// fires: ModeError returns an *InjectedError, ModePanic panics with an
// *InjectedPanic, ModeDelay sleeps Spec.Delay and returns nil.
func Inject(point, key string) error {
	if count.Load() == 0 {
		return nil
	}
	mu.Lock()
	var fire *Spec
	var hit uint64
	for _, a := range points[point] {
		if a.spec.Match != "" && !strings.Contains(key, a.spec.Match) {
			continue
		}
		n := a.hits
		a.hits++
		if n < a.spec.After {
			continue
		}
		if a.spec.Count > 0 && a.fired >= a.spec.Count {
			continue
		}
		if p := a.spec.P; p > 0 && p < 1 && !roll(a.spec.Seed, n, p) {
			continue
		}
		a.fired++
		fire, hit = &a.spec, n
		break
	}
	mu.Unlock()
	if fire == nil {
		return nil
	}
	if fn := observer.Load(); fn != nil {
		(*fn)(point, key, fire.Mode.String(), hit)
	}
	switch fire.Mode {
	case ModePanic:
		panic(&InjectedPanic{Point: point, Key: key, Hit: hit})
	case ModeDelay:
		time.Sleep(fire.Delay)
		return nil
	default:
		return &InjectedError{Point: point, Key: key, Hit: hit}
	}
}

// roll decides a probabilistic firing deterministically: splitmix64 of
// (seed, hit) mapped to [0,1) and compared against p.
func roll(seed, hit uint64, p float64) bool {
	x := seed + (hit+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < p
}

// Parse decodes a spec list: specs separated by ';', each of the form
// point[@match]:mode[:opt,opt...] (see the package comment).
func Parse(s string) ([]Spec, error) {
	var out []Spec
	for _, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		spec, err := parseOne(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

func parseOne(raw string) (Spec, error) {
	parts := strings.SplitN(raw, ":", 3)
	if len(parts) < 2 {
		return Spec{}, fmt.Errorf("fault: spec %q: want point[@match]:mode[:opts]", raw)
	}
	var spec Spec
	spec.Point = parts[0]
	if at := strings.IndexByte(parts[0], '@'); at >= 0 {
		spec.Point, spec.Match = parts[0][:at], parts[0][at+1:]
	}
	if spec.Point == "" {
		return Spec{}, fmt.Errorf("fault: spec %q: empty point name", raw)
	}
	switch parts[1] {
	case "error":
		spec.Mode = ModeError
	case "panic":
		spec.Mode = ModePanic
	case "delay":
		spec.Mode = ModeDelay
	default:
		return Spec{}, fmt.Errorf("fault: spec %q: unknown mode %q (want error, panic, delay)", raw, parts[1])
	}
	if len(parts) == 3 {
		for _, opt := range strings.Split(parts[2], ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return Spec{}, fmt.Errorf("fault: spec %q: option %q is not key=value", raw, opt)
			}
			var err error
			switch k {
			case "after":
				spec.After, err = strconv.ParseUint(v, 10, 64)
			case "count":
				spec.Count, err = strconv.ParseUint(v, 10, 64)
			case "seed":
				spec.Seed, err = strconv.ParseUint(v, 10, 64)
			case "p":
				spec.P, err = strconv.ParseFloat(v, 64)
				if err == nil && (spec.P < 0 || spec.P > 1) {
					err = fmt.Errorf("probability out of [0,1]")
				}
			case "delay":
				spec.Delay, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown option")
			}
			if err != nil {
				return Spec{}, fmt.Errorf("fault: spec %q: option %q: %v", raw, opt, err)
			}
		}
	}
	return spec, nil
}

// ArmFromEnv parses and arms LAP_FAULTS, returning how many specs were
// armed (0 when the variable is unset or empty).
func ArmFromEnv() (int, error) {
	specs, err := Parse(os.Getenv(EnvVar))
	if err != nil {
		return 0, err
	}
	for _, s := range specs {
		if err := Arm(s); err != nil {
			return 0, err
		}
	}
	return len(specs), nil
}
