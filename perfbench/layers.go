package main

import (
	"fmt"
	"reflect"
	"time"

	lap "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The per-layer split of one simulation, measured from outside the
// engine: a forwarding trace.BatchSource around every core's source
// times the workload layer, a forwarding core.Controller times the
// inclusion controller, and the run's own block streams are replayed
// through isolated cache.Lookup calls. The wrappers change no simulated
// state, which runWrapped's callers assert with reflect.DeepEqual
// against the unwrapped run.
//
// The inclusive controller cannot be wrapped: sim enables
// back-invalidation by type-asserting *core.Inclusive, so a wrapped
// inclusive run would simulate a different machine. The workloads use
// LAP.

// recordCap bounds each recorded block stream (8 MB of uint64s).
const recordCap = 1 << 20

// timedSource forwards a Source, timing every batch it decodes. It
// keeps NextBatch, so the engine's decode stays batched and the clock is
// read twice per batch, not per access.
type timedSource struct {
	src        trace.Source
	blockBytes uint64
	ns         time.Duration
	n          uint64
	rec        *[]uint64 // shared block-stream recording, capped
}

func (s *timedSource) Next() (trace.Access, bool) {
	var a [1]trace.Access
	if s.NextBatch(a[:]) == 0 {
		return trace.Access{}, false
	}
	return a[0], true
}

func (s *timedSource) NextBatch(dst []trace.Access) int {
	t := time.Now()
	n := trace.FillBatch(s.src, dst)
	s.ns += time.Since(t)
	s.n += uint64(n)
	if s.rec != nil {
		for _, a := range dst[:n] {
			if len(*s.rec) >= recordCap {
				break
			}
			*s.rec = append(*s.rec, a.Addr/s.blockBytes)
		}
	}
	return n
}

// timedController forwards a Controller, counting every call and timing
// one call in every timeEvery: reading the clock costs about as much as
// a cheap controller call, so timing all of them would double the
// layer's apparent cost.
type timedController struct {
	core.Controller
	fetches, evicts     uint64
	fetchNs, evictNs    time.Duration
	fetchSamp, evictSmp uint64
	record              bool
	rec                 []uint64 // recorded Fetch block stream, capped
}

const timeEvery = 64

// maxSampleTime drops a timed call that took longer than any controller
// call does: it was descheduled or stopped for garbage collection. The
// sampled mean is multiplied by timeEvery, so one such call among a few
// thousand samples could otherwise exceed the run's whole engine time.
const maxSampleTime = 100 * time.Microsecond

func (c *timedController) Fetch(x *core.Ctx, block uint64) core.FetchResult {
	c.fetches++
	if c.record && len(c.rec) < recordCap {
		c.rec = append(c.rec, block)
	}
	if c.fetches%timeEvery != 0 {
		return c.Controller.Fetch(x, block)
	}
	t := time.Now()
	r := c.Controller.Fetch(x, block)
	if d := time.Since(t); d < maxSampleTime {
		c.fetchNs += d
		c.fetchSamp++
	}
	return r
}

func (c *timedController) EvictL2(x *core.Ctx, v cache.Line) {
	c.evicts++
	if c.evicts%timeEvery != 0 {
		c.Controller.EvictL2(x, v)
		return
	}
	t := time.Now()
	c.Controller.EvictL2(x, v)
	if d := time.Since(t); d < maxSampleTime {
		c.evictNs += d
		c.evictSmp++
	}
}

// simInput is one simulation the benchmark runs: a multi-programmed mix
// or a coherent multi-threaded benchmark, under one policy.
type simInput struct {
	name     string
	policy   lap.Policy
	mix      lap.Mix
	bench    lap.Benchmark
	threaded bool
	accesses uint64
	seed     uint64
}

// runPublic runs the input through the public entry point a lapsim user
// calls.
func (in simInput) runPublic(cfg lap.Config) (lap.Result, error) {
	if in.threaded {
		return lap.RunThreaded(cfg, in.policy, in.bench, in.accesses, in.seed)
	}
	return lap.Run(cfg, in.policy, in.mix, in.accesses, in.seed)
}

// layerSample is the outside-in measurement of one wrapped run.
type layerSample struct {
	res      lap.Result
	wall     time.Duration
	src      []*timedSource
	ctrl     *timedController
	blocks   []uint64
	accesses uint64
}

// runWrapped runs the input exactly as runPublic does, but with every
// source and the controller wrapped. With record set it also records
// the first block streams for the isolated lookup replay; the appends
// then fall inside the wall time, so a recorded run's timings are not
// added to any layerTotals.
func (in simInput) runWrapped(cfg lap.Config, record bool) (*layerSample, error) {
	ctrl, err := lap.NewController(in.policy, cfg)
	if err != nil {
		return nil, err
	}
	var srcs []trace.Source
	if in.threaded {
		cfg.Coherent = true
		srcs = sim.ThreadSources(in.bench, cfg.Cores, in.accesses, in.seed)
	} else {
		if srcs, err = sim.MixSources(in.mix, in.accesses, in.seed); err != nil {
			return nil, err
		}
	}
	ls := &layerSample{ctrl: &timedController{Controller: ctrl, record: record}}
	wrapped := make([]trace.Source, len(srcs))
	for i, s := range srcs {
		ts := &timedSource{src: s, blockBytes: uint64(cfg.BlockBytes)}
		if record {
			ts.rec = &ls.blocks
		}
		ls.src = append(ls.src, ts)
		wrapped[i] = ts
	}
	t := time.Now()
	ls.res = sim.Run(cfg, ls.ctrl, wrapped)
	ls.wall = time.Since(t)
	for _, s := range ls.src {
		ls.accesses += s.n
	}
	return ls, nil
}

// probeRun splits one simulation layer by layer. A wrapped run is
// timed into tot; a second wrapped run records the block streams for the
// isolated lookup replay and stays out of tot, so the recording's
// appends never count as engine time; both must equal the plain run,
// whose Result probeRun returns.
func probeRun(cfg lap.Config, in simInput, tot *layerTotals) (lap.Result, error) {
	ls, err := in.runWrapped(cfg, false)
	if err != nil {
		return lap.Result{}, err
	}
	tot.add(ls)
	rec, err := in.runWrapped(cfg, true)
	if err != nil {
		return lap.Result{}, err
	}
	tot.addLookups(cfg, rec)
	plain, err := in.runPublic(cfg)
	if err != nil {
		return lap.Result{}, err
	}
	for _, r := range []lap.Result{ls.res, rec.res} {
		if err := checkTransparent(in.name, r, plain); err != nil {
			return lap.Result{}, err
		}
	}
	return plain, nil
}

// checkTransparent reports a wrapped run whose Result differs from the
// unwrapped run of the same input.
func checkTransparent(name string, wrapped, plain lap.Result) error {
	if !reflect.DeepEqual(wrapped, plain) {
		return fmt.Errorf("%s: wrapped run's Result differs from the unwrapped run", name)
	}
	return nil
}

// clockCost is the clock overhead inside one timed interval: the mean
// of time.Since(time.Now()), taken after a warm-up round. It is
// subtracted from every sampled controller call.
var clockCost = func() time.Duration {
	const n = 1 << 16
	var sum time.Duration
	for round := 0; round < 2; round++ {
		sum = 0
		for i := 0; i < n; i++ {
			s := time.Now()
			sum += time.Since(s)
		}
	}
	return sum / n
}()

// layerTotals accumulates wrapped runs of one input class.
type layerTotals struct {
	wall                                 time.Duration
	srcNs                                time.Duration
	accesses                             uint64
	fetches, evicts, fetchSamp, evictSmp uint64
	fetchNs, evictNs                     time.Duration
	met                                  core.Metrics
	l2LookupNs, llcLookupNs              float64
	lookupRuns                           int
}

func (t *layerTotals) add(ls *layerSample) {
	t.wall += ls.wall
	for _, s := range ls.src {
		t.srcNs += s.ns
	}
	t.accesses += ls.accesses
	c := ls.ctrl
	t.fetches += c.fetches
	t.evicts += c.evicts
	t.fetchSamp += c.fetchSamp
	t.evictSmp += c.evictSmp
	t.fetchNs += c.fetchNs
	t.evictNs += c.evictNs
	t.met.Add(&ls.res.Met)
}

// addLookups replays the sample's recorded streams through isolated
// caches of the run's L2 and LLC geometry.
func (t *layerTotals) addLookups(cfg lap.Config, ls *layerSample) {
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2SizeBytes, Ways: cfg.L2Ways, BlockBytes: cfg.BlockBytes})
	llc := cache.New(cache.Config{Name: "L3", SizeBytes: cfg.L3SizeBytes, Ways: cfg.L3Ways,
		BlockBytes: cfg.BlockBytes, SRAMWays: cfg.L3SRAMWays, Replacement: cfg.L3Replacement})
	t.l2LookupNs += replayLookups(l2, ls.blocks)
	t.llcLookupNs += replayLookups(llc, ls.ctrl.rec)
	t.lookupRuns++
}

// replayLookups fills c from the stream (LRU insertion on a miss), then
// times cache.Lookup alone over the same stream, in ns per lookup.
// Lookup promotes hits to MRU, so the timed calls cannot be elided.
func replayLookups(c *cache.Cache, blocks []uint64) float64 {
	if len(blocks) == 0 {
		return 0
	}
	for _, b := range blocks {
		if c.Lookup(b) < 0 {
			set := c.SetOf(b)
			c.InsertAt(set, c.LRUVictim(set), b, false, false)
		}
	}
	t := time.Now()
	for _, b := range blocks {
		c.Lookup(b)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(len(blocks))
}

// report emits the layer metrics of the accumulated runs under suffix.
func (t *layerTotals) report(p *pass, suffix string) {
	if t.accesses == 0 {
		return
	}
	acc := float64(t.accesses)
	per := func(d time.Duration, samples uint64) float64 {
		if samples == 0 {
			return 0
		}
		v := float64(d.Nanoseconds())/float64(samples) - float64(clockCost.Nanoseconds())
		if v < 0 {
			v = 0
		}
		return v
	}
	fetchNs, evictNs := per(t.fetchNs, t.fetchSamp), per(t.evictNs, t.evictSmp)
	ctrlNs := fetchNs*float64(t.fetches) + evictNs*float64(t.evicts)
	m := &t.met
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	p.layer("workload.ns_per_access"+suffix, float64(t.srcNs.Nanoseconds())/acc, "ns")
	p.layer("sim.self_ns_per_access"+suffix, (float64(t.wall.Nanoseconds()-t.srcNs.Nanoseconds())-ctrlNs)/acc, "ns")
	p.layer("l1.miss_ratio"+suffix, ratio(m.L1Misses, m.L1Accesses), "ratio")
	p.layer("l2.miss_ratio"+suffix, ratio(m.L2Misses, m.L2Accesses), "ratio")
	p.layer("coherence.probes_per_access"+suffix, ratio(m.SnoopProbes, m.L1Accesses), "ratio")
	p.layer("core.fetch_ns"+suffix, fetchNs, "ns")
	p.layer("core.evict_ns"+suffix, evictNs, "ns")
	p.layer("core.fetch_per_access"+suffix, float64(t.fetches)/acc, "ratio")
	p.layer("core.evict_per_access"+suffix, float64(t.evicts)/acc, "ratio")
	if t.lookupRuns > 0 {
		p.layer("cache.l2_lookup_ns"+suffix, t.l2LookupNs/float64(t.lookupRuns), "ns")
		p.layer("cache.llc_lookup_ns"+suffix, t.llcLookupNs/float64(t.lookupRuns), "ns")
	}
	p.layer("llc.hit_ratio"+suffix, ratio(m.L3Hits, m.L3Accesses), "ratio")
	p.layer("llc.writes_per_access"+suffix, ratio(m.WritesToLLC(), m.L1Accesses), "ratio")
	p.layer("llc.tag_only_per_access"+suffix, ratio(m.TagOnlyUpdates, m.L1Accesses), "ratio")
}
