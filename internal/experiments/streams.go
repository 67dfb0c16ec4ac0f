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
// one mix, and the runs of a mix share large artifacts:
//   - Exact runs share the recorded private levels of the mix's cores.
//     On an exact, non-coherent run each core's L1/L2 history is the
//     same under every controller but inclusive, and in every mix that
//     runs its benchmark at its position, so an exact warm batch
//     records each distinct core (sim.RecordCore) and replays every
//     eligible run over its mix's cores (sim.Replay), which gives the
//     same Result as the direct walk. A quick per-core recording is
//     ~1.7 MB.
//   - Sampled runs share the mix's functional profile (memo.go), which
//     is policy-independent. It holds up to 16 snapshots of the whole
//     hierarchy, ~24 MB at the Table II geometry.
//
// An artifact lives in its memo only while a warm batch holds it: the
// batch runs mix-major, builds each mix's artifacts while the workers
// run the previous mix and drops each after the last run that reads it
// (sched.go). A profile belongs to one mix, so resident profiles are
// bounded by the worker count; a core recording shared by several mixes
// stays from its first mix to its last unless that would keep too many
// resident, and then is recorded again (planRecordings). Runs outside
// a warm batch, and every run with one worker (the reference serial
// path), walk the private levels directly, and the profiles they build
// stay until ResetMemo.

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

// holdIfHeld adds one holder of each key if each already has one, and
// none otherwise.
func (m *heldMemo[K, V]) holdIfHeld(keys ...K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		if m.holds[k] == 0 {
			return false
		}
	}
	for _, k := range keys {
		m.holds[k]++
	}
	return true
}

// release drops one holder of each key and, with a key's last one, its
// artifact.
func (m *heldMemo[K, V]) release(keys ...K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		if m.holds[k]--; m.holds[k] > 0 {
			continue
		}
		delete(m.holds, k)
		if m.Forget(k) {
			m.resident--
		}
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

// artifact is an artifact a warm-batch group shares (sched.go).
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
}

func (a heldArtifact[K, V]) hold(n int)      { a.m.hold(a.key, n) }
func (a heldArtifact[K, V]) release()        { a.m.release(a.key) }
func (a heldArtifact[K, V]) pays(n int) bool { return n > 0 }

func (a heldArtifact[K, V]) build() {
	if !a.m.holdIfHeld(a.key) {
		return
	}
	defer a.m.release(a.key)
	ctx, sp := a.trace.Root(context.Background(), a.m.span, otrace.Str("mix", a.mix))
	defer sp.End()
	a.get(ctx) // a failure resurfaces in the mix's runs
}

// recKey names one recording in the stream memo: a core, and which of
// a warm batch's recordings of it this is. A batch that would keep a
// core resident across too many mixes records it again for its later
// readers instead (planRecordings, sched.go), and each recording is a
// memo entry of its own.
type recKey struct {
	Core sim.CoreKey
	Gen  int
}

// recordings is a group's artifact for its exact replayable runs: the
// recordings of its mix's cores. Each is held and built on its own, so
// one that other groups share is built once, by the first group's build
// unit, and stays until its last reader ends. The batch's plan sets the
// keys' Gen before any hold is taken.
type recordings struct {
	keys  []recKey
	cfg   sim.Config
	mix   string
	trace *otrace.Tracer
}

func (r *recordings) hold(n int) {
	for _, k := range r.keys {
		streams.hold(k, n)
	}
}

func (r *recordings) release() { streams.release(r.keys...) }

func (r *recordings) build() {
	for _, k := range r.keys {
		heldArtifact[recKey, *sim.Recording]{
			m: streams, key: k, mix: r.mix, trace: r.trace,
			get: func(ctx context.Context) (*sim.Recording, error) { return recordingFor(ctx, k, r.cfg) },
		}.build()
	}
}

// pays reports whether recording pays: from two runs, since recording
// costs most of a direct run.
func (r *recordings) pays(n int) bool { return n >= 2 }

// groupKey names the group of a warm batch a run joins: its mix's
// profile if it is sampled, its mix's recording key otherwise.
type groupKey struct {
	stream  streamKey
	profile profileKey
}

// artifactFor returns the group of a warm batch that a run of cfg
// under c joins, and the artifact the run reads: the functional profile
// of a sampled run (needed by any sampled run), the recordings of its
// mix's cores for an exact replayable one, nil for a run that walks its
// private levels directly.
func artifactFor(cfg sim.Config, c core.Controller, mix workload.Mix, opt Options) (groupKey, artifact) {
	if cfg.SampleInterval > 0 {
		key := profileKeyFor(cfg, mix, opt)
		return groupKey{profile: key}, heldArtifact[profileKey, *sample.Profile]{
			m: profiles, key: key, mix: key.Mix, trace: opt.Trace,
			get: func(ctx context.Context) (*sample.Profile, error) { return profileFor(ctx, key, cfg, mix, opt) },
		}
	}
	gk := groupKey{stream: streamKeyFor(cfg, mix, opt)}
	keys, ok := replayKeys(cfg, c, mix, opt)
	if !ok {
		return gk, nil
	}
	recs := &recordings{keys: make([]recKey, len(keys)), cfg: cfg, mix: gk.stream.Mix, trace: opt.Trace}
	for i, k := range keys {
		recs.keys[i].Core = k
	}
	return gk, recs
}

// streamKey identifies one mix's recorded private-level history, the
// group of its exact runs. It holds only what the private levels
// depend on, so LLC-only variants of a machine (technology, size, ways,
// replacement, hybrid) share one group.
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

// streams is the stream memo of per-core recordings. A run replays only
// from recordings a batch holds, holding them too while it does.
var streams = newHeldMemo[recKey, *sim.Recording]("per-core recordings", "record")

// replayKeys returns the recordings an exact run would replay, one per
// core, and whether it can: sim decides for the controller and
// configuration, and the mix must fit the machine. Sampled sweeps never
// replay.
func replayKeys(cfg sim.Config, c core.Controller, mix workload.Mix, opt Options) ([]sim.CoreKey, bool) {
	if opt.SampleInterval != 0 || !sim.Replayable(cfg, c) {
		return nil, false
	}
	keys, err := cfg.CoreKeys(mix, opt.Accesses, opt.Seed)
	return keys, err == nil
}

// recordingFor returns key's recording, recording it on first use.
func recordingFor(ctx context.Context, key recKey, cfg sim.Config) (*sim.Recording, error) {
	return streams.get(ctx, key, func() (*sim.Recording, error) {
		return sim.RecordCore(cfg, key.Core)
	})
}
