package experiments

import (
	"context"
	"sync"

	"repro/internal/core"
	memocache "repro/internal/memo"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Shared private levels. A policy comparison runs several controllers
// over one mix, and on an exact, non-coherent run each core's L1/L2
// history is the same under every controller but inclusive. An exact
// warm batch therefore records each mix's private levels once
// (sim.RecordMix) and replays every eligible run of the mix over the
// recording (sim.Replay), which gives the same Result as the direct
// walk. The recording lives in the stream memo only while the batch
// holds it: the batch runs mix-major, records each mix one unit ahead
// of its first replay and drops the recording after the mix's last
// run, so resident recordings are bounded by the worker count, not by
// the batch's mix count. Runs outside a warm batch, and every run with
// one worker (the reference serial path), walk the private levels
// directly.

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

// streams is the stream memo: singleflight, so a recording that a run
// needs while its record unit is still working is waited for, not made
// twice.
var streams = memocache.New[streamKey, *sim.Streams](0)

// holds counts, per recording, the warm-batch units and runs that will
// still read it. A run replays only from a recording a batch holds,
// holding it too while it does, and the last holder to finish drops
// it. resident counts the recordings in the memo and
// peak its high-water mark since the last ResetMemo.
var holds = struct {
	sync.Mutex
	n              map[streamKey]int
	resident, peak int
}{n: map[streamKey]int{}}

// hold adds n holders of key.
func hold(key streamKey, n int) {
	holds.Lock()
	holds.n[key] += n
	holds.Unlock()
}

// holdIfHeld adds one holder of key if one already holds it.
func holdIfHeld(key streamKey) bool {
	holds.Lock()
	defer holds.Unlock()
	if holds.n[key] == 0 {
		return false
	}
	holds.n[key]++
	return true
}

// release drops one holder of key and, with the last one, the
// recording.
func release(key streamKey) {
	holds.Lock()
	defer holds.Unlock()
	if holds.n[key]--; holds.n[key] > 0 {
		return
	}
	delete(holds.n, key)
	if streams.Forget(key) {
		holds.resident--
	}
}

// replayKey returns the recording an exact run would replay, and
// whether it can: sim decides for the controller and configuration,
// and the mix must fit the machine. Sampled sweeps never replay.
func replayKey(cfg sim.Config, c core.Controller, mix workload.Mix, opt Options) (streamKey, bool) {
	key := streamKeyFor(cfg, mix, opt)
	return key, opt.SampleInterval == 0 && len(mix.Members) == cfg.Cores && sim.Replayable(cfg, c)
}

// streamsFor returns key's recording, recording it on first use.
func streamsFor(ctx context.Context, key streamKey, cfg sim.Config, mix workload.Mix, opt Options) (*sim.Streams, error) {
	return streams.DoErr(ctx, key, func() (*sim.Streams, error) {
		st, err := sim.RecordMix(cfg, mix, opt.Accesses, opt.Seed)
		if err == nil {
			holds.Lock()
			holds.resident++
			holds.peak = max(holds.peak, holds.resident)
			holds.Unlock()
		}
		return st, err
	})
}

// recordUnit is the warm-batch unit that records a held mix ahead of
// its replays. Like a replaying run, it holds the recording while it
// works, so a recording made after the mix's last run is still
// dropped.
func recordUnit(key streamKey, cfg sim.Config, mix workload.Mix, opt Options) func() {
	return func() {
		if !holdIfHeld(key) {
			return
		}
		defer release(key)
		ctx, sp := opt.Trace.Root(context.Background(), "record", otrace.Str("mix", key.Mix))
		defer sp.End()
		streamsFor(ctx, key, cfg, mix, opt) // a failure resurfaces in the mix's runs
	}
}

// streamPeak is the high-water mark of resident recordings since the
// last ResetMemo.
func streamPeak() int {
	holds.Lock()
	defer holds.Unlock()
	return holds.peak
}

func resetStreams() {
	streams.Reset()
	holds.Lock()
	holds.resident, holds.peak = 0, 0
	holds.Unlock()
}

// registerStreams exposes the stream memo: computed counts recordings,
// recalled the replays served from one.
func registerStreams(r *obs.Registry, prefix string) {
	streams.Register(r, prefix)
	if r != nil {
		r.GaugeFunc(prefix+"_peak_entries",
			"High-water mark of resident recordings since the last memo reset.",
			func() float64 { return float64(streamPeak()) })
	}
}
