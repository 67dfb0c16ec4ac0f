package sim

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Shared private levels. On a run without coherence, a core's L1/L2
// history depends only on its own access stream: a controller other
// than inclusive sees the LLC alone, through core.Ctx, and reaches back
// into the private levels only through the latency it returns and the
// loop bit it asks the L2 to set on a fill. Latency moves the core's clock, which decides when
// the core reaches the LLC, but never what its L1/L2 hold
// (TestPrivateLevelsPolicyIndependent pins this). A policy comparison
// therefore walks the same L1/L2 history once per policy.
//
// RecordMix walks each core's private levels once and keeps what the LLC
// sees of them. Replay then runs any eligible controller over the
// recording inside the serial loop: the scheduler, the clock arithmetic
// (retire, stall), the warmup window and result() are the direct
// walk's own, so a replayed Result is identical to the direct one.

// PrivateKey is the part of a Config the private levels depend on. Two
// configurations with equal keys walk identical L1/L2 histories over
// the same sources, so they can share one recording.
type PrivateKey struct {
	Cores               int
	L1SizeBytes, L1Ways int
	L2SizeBytes, L2Ways int
	BlockBytes          int
	PrefetchDegree      int
}

// PrivateKey returns the private-level part of c.
func (c Config) PrivateKey() PrivateKey {
	return PrivateKey{
		Cores:       c.Cores,
		L1SizeBytes: c.L1SizeBytes, L1Ways: c.L1Ways,
		L2SizeBytes: c.L2SizeBytes, L2Ways: c.L2Ways,
		BlockBytes:     c.BlockBytes,
		PrefetchDegree: c.PrefetchDegree,
	}
}

// Replayable reports whether a run of cfg under ctrl may take its cores'
// private-level history from a recording. The direct walk stays the
// path for every run the recording cannot represent: coherent and
// MOESI-tracked runs (snoops write other cores' private levels),
// profiled runs (the profiler watches L2 writes), the banked engine,
// checkpointed and sampled runs, and controllers that back-invalidate
// into the L1/L2 (inclusive).
func Replayable(cfg Config, ctrl core.Controller) bool {
	return cfg.recordable() && !backInvalidates(ctrl)
}

// recordable reports whether cfg's private levels are independent of
// the controller.
func (c Config) recordable() bool {
	return !c.Coherent && !c.TrackMOESI && !c.Profile && c.Banks == 0 &&
		c.CheckpointEvery == 0 && c.SampleInterval == 0
}

// Streams is a recorded private-level history, one stream per core.
// It is read-only once recorded, so concurrent replays may share it.
type Streams struct {
	key   PrivateKey
	cores []stream
}

// stream is one core's recording.
type stream struct {
	// acc holds one word per access: the instruction count in bits
	// 0-15, accWrite, the serving level (0 L1, 1 L2, 2 LLC) at
	// accLevelShift and the number of LLC operations the access issued
	// at accOpsShift.
	acc []uint32
	// ops holds one word per LLC operation, in call order: the block
	// number in bits 0-57, then opEvict for an L2 victim (a fetch
	// otherwise), opDirty for a dirty victim and opLoop for a victim
	// whose loop bit is still the one an earlier fetch's fill set. The
	// next loopSrc entry names that fetch.
	ops     []uint64
	loopSrc []uint32
	// fetches counts the fetch operations.
	fetches uint32
}

const (
	accWrite      = 1 << 16
	accLevelShift = 17
	accOpsShift   = 19

	opBlock = cache.MaxBlock
	opEvict = 1 << 58
	opDirty = 1 << 59
	opLoop  = 1 << 60
)

// recorder is the controller of a recording walk. It logs the current
// core's LLC operations and answers every fetch as a loop-candidate hit,
// so an L2 line's loop bit stays set exactly as long as some policy's
// fill could have set it.
type recorder struct {
	s *stream
	// filled maps each block the current core's L2 holds to the index of
	// the last fetch of it. A set loop bit can only come from the fill
	// that followed that fetch: the block stays in the L2 from the fill
	// to its eviction, so it is not fetched again in between.
	filled map[uint64]uint32
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Fetch(_ *core.Ctx, block uint64) core.FetchResult {
	if r.s.fetches == ^uint32(0) {
		panic("sim: recording holds more fetches than a stream can index")
	}
	r.filled[block] = r.s.fetches
	r.s.fetches++
	r.s.ops = append(r.s.ops, block)
	return core.FetchResult{Hit: true, Loop: true}
}

func (r *recorder) EvictL2(_ *core.Ctx, v cache.Line) {
	op := v.Tag | opEvict
	if v.Dirty {
		op |= opDirty
	}
	if v.Loop {
		op |= opLoop
		r.s.loopSrc = append(r.s.loopSrc, r.filled[v.Tag])
	}
	delete(r.filled, v.Tag)
	r.s.ops = append(r.s.ops, op)
}

// record walks each core's private levels over its source, one core
// after another, and returns the recording; accesses is the expected
// stream length per core. The sources are consumed.
func record(cfg Config, srcs []trace.Source, accesses uint64) (*Streams, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(srcs), cfg.Cores)
	}
	if !cfg.recordable() {
		return nil, errors.New("sim: the configuration's private levels depend on the controller; run it directly")
	}
	rec := &recorder{filled: make(map[uint64]uint32)}
	m := build(cfg, rec, srcs)
	met := m.ctx.Met
	st := &Streams{key: cfg.PrivateKey(), cores: make([]stream, cfg.Cores)}
	for i, c := range m.cores {
		rec.s = &st.cores[i]
		rec.s.acc = make([]uint32, 0, accesses)
		rec.s.ops = make([]uint64, 0, accesses)
		clear(rec.filled)
		for {
			acc, ok := c.next()
			if !ok {
				break
			}
			l1, l2, ops := met.L1Misses, met.L2Misses, len(rec.s.ops)
			m.access(c, acc.Addr/uint64(cfg.BlockBytes), acc.Write)
			level := met.L1Misses - l1 + met.L2Misses - l2
			w := uint32(acc.Instrs) | uint32(level)<<accLevelShift | uint32(len(rec.s.ops)-ops)<<accOpsShift
			if acc.Write {
				w |= accWrite
			}
			rec.s.acc = append(rec.s.acc, w)
		}
	}
	return st, nil
}

// RecordMix records a multi-programmed mix over the sources RunMix
// would simulate.
func RecordMix(cfg Config, mix workload.Mix, accesses, seed uint64) (*Streams, error) {
	srcs, err := mixSources(cfg, mix, accesses, seed)
	if err != nil {
		return nil, err
	}
	return record(cfg, srcs, accesses)
}

// Replay runs ctrl over a recording. The result is identical to Run
// over the sources the recording was made from.
func Replay(cfg Config, ctrl core.Controller, st *Streams) (Result, error) {
	if !Replayable(cfg, ctrl) {
		return Result{}, fmt.Errorf("sim: a %s run cannot replay recorded private levels", ctrl.Name())
	}
	if st.key != cfg.PrivateKey() {
		return Result{}, fmt.Errorf("sim: streams recorded for %+v replayed on %+v", st.key, cfg.PrivateKey())
	}
	m := build(cfg, ctrl, make([]trace.Source, cfg.Cores))
	for i, c := range m.cores {
		c.rp = newReplayCursor(&st.cores[i])
	}
	m.loop()
	return m.result(), nil
}

// replayCursor is one core's position in its stream during a replay,
// plus the FetchResult.Loop of every fetch replayed so far.
type replayCursor struct {
	s            *stream
	acc, op, src int
	fetch        uint32
	loop         []uint64 // bit f: fetch f's FetchResult.Loop
}

func newReplayCursor(s *stream) *replayCursor {
	return &replayCursor{s: s, loop: make([]uint64, (uint64(s.fetches)+63)/64)}
}

// replayStep is step for a replayed core: it retires the next recorded
// access and issues its LLC operations in recorded order, with the
// private-level counters and the stall the direct walk would produce.
// It reports false at the end of the stream.
func (m *machine) replayStep(c *coreState) bool {
	r := c.rp
	if r.acc == len(r.s.acc) {
		return false
	}
	a := r.s.acc[r.acc]
	r.acc++
	m.retire(c, uint16(a))
	cfg, met := &m.cfg, c.met
	met.L1Accesses++
	lat := cfg.L1Cycles
	level := a >> accLevelShift & 3
	if level > 0 {
		met.L1Misses++
		met.L2Accesses++
		lat += cfg.L2Cycles
	}
	// An access served by the LLC issues its demand fetch first; any
	// later fetch is a prefetch.
	demand := level > 1
	if demand {
		met.L2Misses++
	}
	for n := a >> accOpsShift; n > 0; n-- {
		op := r.s.ops[r.op]
		r.op++
		m.ctx.Now = uint64(c.cycles)
		if op&opEvict == 0 {
			res := m.ctrl.Fetch(m.ctx, op&opBlock)
			if res.Loop {
				r.loop[r.fetch>>6] |= 1 << (r.fetch & 63)
			}
			r.fetch++
			if demand {
				lat += res.Lat
				demand = false
			} else {
				met.Prefetches++
			}
			continue
		}
		v := cache.Line{Tag: op & opBlock, Valid: true, Dirty: op&opDirty != 0}
		if op&opLoop != 0 {
			f := r.s.loopSrc[r.src]
			r.src++
			v.Loop = r.loop[f>>6]&(1<<(f&63)) != 0
		}
		countL2Victim(met, v.Dirty)
		m.ctrl.EvictL2(m.ctx, v)
	}
	m.stall(c, lat, a&accWrite != 0)
	return true
}
