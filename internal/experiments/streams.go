package experiments

import (
	"context"
	"sync"

	"repro/internal/core"
	memocache "repro/internal/memo"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Per-mix artifacts. A policy comparison runs several controllers over
// one mix, and the runs of a mix share one large artifact:
//   - Exact runs share the mix's recorded private levels. On an exact,
//     non-coherent run each core's L1/L2 history is the same under
//     every controller but inclusive, so an exact warm batch records
//     each mix once (sim.RecordMix) and replays every eligible run of
//     the mix over the recording (sim.Replay), which gives the same
//     Result as the direct walk. A quick 4-core recording is ~7 MB.
//   - Sampled runs share the mix's functional profile (memo.go), which
//     is policy-independent. It holds up to 16 snapshots of the whole
//     hierarchy, ~24 MB at the Table II geometry.
//
// An artifact lives in its memo only while a warm batch holds it: the
// batch runs mix-major, builds each mix's artifact while the workers
// run the previous mix and drops it after the mix's last run
// (sched.go), so resident artifacts are bounded by the worker count,
// not by the batch's mix count. Runs outside a warm batch, and every run with one
// worker (the reference serial path), walk the private levels directly,
// and the profiles they build stay until ResetMemo.

// heldMemo is a singleflight memo of per-mix artifacts that warm
// batches hold: a run that needs an artifact its build unit is still
// making waits for it instead of making it twice, and the last holder
// to finish drops it. resident counts the artifacts in the memo and
// peak its high-water mark since the last Reset.
type heldMemo[K comparable, V any] struct {
	*memocache.Cache[K, V]
	what string // the artifacts, plural, for the peak gauge's help
	span string // the span a build unit opens

	mu             sync.Mutex
	holds          map[K]int
	resident, peak int
}

func newHeldMemo[K comparable, V any](what, span string) *heldMemo[K, V] {
	return &heldMemo[K, V]{Cache: memocache.New[K, V](0), what: what, span: span, holds: map[K]int{}}
}

// hold adds n holders of key.
func (m *heldMemo[K, V]) hold(key K, n int) {
	m.mu.Lock()
	m.holds[key] += n
	m.mu.Unlock()
}

// holdIfHeld adds one holder of key if one already holds it.
func (m *heldMemo[K, V]) holdIfHeld(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holds[key] == 0 {
		return false
	}
	m.holds[key]++
	return true
}

// release drops one holder of key and, with the last one, its
// artifact.
func (m *heldMemo[K, V]) release(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holds[key]--; m.holds[key] > 0 {
		return
	}
	delete(m.holds, key)
	if m.Forget(key) {
		m.resident--
	}
}

// get returns key's artifact, building it on first use.
func (m *heldMemo[K, V]) get(ctx context.Context, key K, build func() (V, error)) (V, error) {
	return m.DoErr(ctx, key, func() (V, error) {
		v, err := build()
		if err == nil {
			m.mu.Lock()
			m.resident++
			m.peak = max(m.peak, m.resident)
			m.mu.Unlock()
		}
		return v, err
	})
}

// peakEntries is the high-water mark of resident artifacts since the
// last Reset.
func (m *heldMemo[K, V]) peakEntries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// Reset drops every artifact and restarts the high-water mark.
func (m *heldMemo[K, V]) Reset() {
	m.Cache.Reset()
	m.mu.Lock()
	m.resident, m.peak = 0, 0
	m.mu.Unlock()
}

// Register exposes the memo: computed counts the artifacts built,
// recalled the runs served from one, and _peak_entries the high-water
// mark of resident artifacts.
func (m *heldMemo[K, V]) Register(r *obs.Registry, prefix string) {
	m.Cache.Register(r, prefix)
	if r != nil {
		r.GaugeFunc(prefix+"_peak_entries",
			"High-water mark of resident "+m.what+" since the last memo reset.",
			func() float64 { return float64(m.peakEntries()) })
	}
}

// artifact is the per-mix artifact a warm-batch group shares (sched.go).
type artifact interface {
	// hold adds n holders.
	hold(n int)
	// release drops one holder; the last one drops the artifact.
	release()
	// build makes the artifact while a holder remains. It is the unit
	// that runs ahead of the group, and it holds the artifact while it
	// works, so one made after the group's last run is still dropped.
	build()
	// pays reports whether building the artifact ahead pays for n of the
	// group's runs still to compute.
	pays(n int) bool
}

// heldArtifact is one key of a heldMemo as a warm-batch artifact.
type heldArtifact[K comparable, V any] struct {
	m     *heldMemo[K, V]
	key   K
	mix   string
	trace *otrace.Tracer
	get   func(context.Context) (V, error)
	// min is the number of runs to compute from which building pays.
	min int
}

func (a heldArtifact[K, V]) hold(n int)      { a.m.hold(a.key, n) }
func (a heldArtifact[K, V]) release()        { a.m.release(a.key) }
func (a heldArtifact[K, V]) pays(n int) bool { return n >= a.min }

func (a heldArtifact[K, V]) build() {
	if !a.m.holdIfHeld(a.key) {
		return
	}
	defer a.m.release(a.key)
	ctx, sp := a.trace.Root(context.Background(), a.m.span, otrace.Str("mix", a.mix))
	defer sp.End()
	a.get(ctx) // a failure resurfaces in the mix's runs
}

// groupKey names the group of a warm batch a run joins: its mix's
// profile if it is sampled, its mix's recording key otherwise.
type groupKey struct {
	stream  streamKey
	profile profileKey
}

// artifactFor returns the group of a warm batch that a run of cfg
// under c joins, and the artifact the run reads: the functional profile
// of a sampled run, the recording of an exact replayable one, nil for a
// run that walks its private levels directly. A recording pays from
// two runs, since recording costs most of a direct run; a profile is
// needed by any sampled run.
func artifactFor(cfg sim.Config, c core.Controller, mix workload.Mix, opt Options) (groupKey, artifact) {
	if cfg.SampleInterval > 0 {
		key := profileKeyFor(cfg, mix, opt)
		return groupKey{profile: key}, heldArtifact[profileKey, *sample.Profile]{
			m: profiles, key: key, mix: key.Mix, trace: opt.Trace, min: 1,
			get: func(ctx context.Context) (*sample.Profile, error) { return profileFor(ctx, key, cfg, mix, opt) },
		}
	}
	key, ok := replayKey(cfg, c, mix, opt)
	if !ok {
		return groupKey{stream: key}, nil
	}
	return groupKey{stream: key}, heldArtifact[streamKey, *sim.Streams]{
		m: streams, key: key, mix: key.Mix, trace: opt.Trace, min: 2,
		get: func(ctx context.Context) (*sim.Streams, error) { return streamsFor(ctx, key, cfg, mix, opt) },
	}
}

// streamKey identifies one mix's recorded private-level history. It
// holds only what the private levels depend on, so LLC-only variants
// of a machine (technology, size, ways, replacement, hybrid) share one
// recording.
type streamKey struct {
	Priv     sim.PrivateKey
	Mix      string
	Accesses uint64
	Seed     uint64
}

func streamKeyFor(cfg sim.Config, mix workload.Mix, opt Options) streamKey {
	return streamKey{
		Priv:     cfg.PrivateKey(),
		Mix:      mixID(mix),
		Accesses: opt.Accesses,
		Seed:     opt.Seed,
	}
}

// streams is the stream memo. A run replays only from a recording a
// batch holds, holding it too while it does.
var streams = newHeldMemo[streamKey, *sim.Streams]("recordings", "record")

// replayKey returns the recording an exact run would replay, and
// whether it can: sim decides for the controller and configuration,
// and the mix must fit the machine. Sampled sweeps never replay.
func replayKey(cfg sim.Config, c core.Controller, mix workload.Mix, opt Options) (streamKey, bool) {
	key := streamKeyFor(cfg, mix, opt)
	return key, opt.SampleInterval == 0 && len(mix.Members) == cfg.Cores && sim.Replayable(cfg, c)
}

// streamsFor returns key's recording, recording it on first use.
func streamsFor(ctx context.Context, key streamKey, cfg sim.Config, mix workload.Mix, opt Options) (*sim.Streams, error) {
	return streams.get(ctx, key, func() (*sim.Streams, error) {
		return sim.RecordMix(cfg, mix, opt.Accesses, opt.Seed)
	})
}
