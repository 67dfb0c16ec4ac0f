package sim

import (
	"errors"
	"fmt"
	"math"

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
// (TestPrivateLevelsPolicyIndependent pins this). Nor do the other
// cores of the mix or the machine's core count
// (TestPrivateLevelsMixIndependent). A policy comparison therefore
// walks the same L1/L2 history once per policy, and a sweep over mixes
// walks one benchmark at one position again in every mix that runs it.
//
// RecordCore walks one core's private levels and keeps what the LLC
// sees of them. Replay assembles a mix from its cores' recordings and
// runs any eligible controller over them. Only an access that issues
// LLC operations touches shared state, so only those are ordered
// across cores (replayLoop); the clock arithmetic (retire, stall) and
// result() are the direct walk's own, so a replayed Result is
// identical to the direct one.

// PrivateKey is the part of a Config one core's private levels depend
// on. Cores is not part of it: a core's L1/L2 do not see the others.
type PrivateKey struct {
	L1SizeBytes, L1Ways int
	L2SizeBytes, L2Ways int
	BlockBytes          int
	PrefetchDegree      int
}

// PrivateKey returns the private-level part of c.
func (c Config) PrivateKey() PrivateKey {
	return PrivateKey{
		L1SizeBytes: c.L1SizeBytes, L1Ways: c.L1Ways,
		L2SizeBytes: c.L2SizeBytes, L2Ways: c.L2Ways,
		BlockBytes:     c.BlockBytes,
		PrefetchDegree: c.PrefetchDegree,
	}
}

// CoreKey identifies one core's recorded private-level history: the
// private levels' geometry and the core's access stream, which
// MixSources derives from the benchmark, the core's position in its
// mix, the stream length and the seed. One benchmark at one position
// records the same history in every mix and on every core count.
type CoreKey struct {
	Priv     PrivateKey
	Bench    string
	Pos      int
	Accesses uint64
	Seed     uint64
}

// CoreKeys returns the keys of the recordings a run of mix on c
// replays, one per core.
func (c Config) CoreKeys(mix workload.Mix, accesses, seed uint64) ([]CoreKey, error) {
	if len(mix.Members) != c.Cores {
		return nil, fmt.Errorf("sim: mix %s has %d members for %d cores", mix.Name, len(mix.Members), c.Cores)
	}
	benches, err := mix.Benchmarks()
	if err != nil {
		return nil, err
	}
	keys := make([]CoreKey, len(benches))
	for i, b := range benches {
		keys[i] = CoreKey{Priv: c.PrivateKey(), Bench: b.Name, Pos: i, Accesses: accesses, Seed: seed}
	}
	return keys, nil
}

// Replayable reports whether a run of cfg under ctrl may take its cores'
// private-level history from recordings. The direct walk stays the
// path for every run the recordings cannot represent: coherent and
// MOESI-tracked runs (snoops write other cores' private levels),
// profiled runs (the profiler watches L2 writes), the banked engine,
// checkpointed and sampled runs, controllers that back-invalidate into
// the L1/L2 (inclusive), warmup-bounded runs (their baseline snapshots
// every core at one point of the global order, which replay does not
// keep), and clock settings under which a core's clock could fall or
// turn NaN (replay's ordering rests on a clock that never decreases).
func Replayable(cfg Config, ctrl core.Controller) bool {
	return cfg.recordable() && !backInvalidates(ctrl) &&
		cfg.WarmupAccessesPerCore == 0 && cfg.monotoneClock()
}

// recordable reports whether cfg's private levels are independent of
// the controller.
func (c Config) recordable() bool {
	return !c.Coherent && !c.TrackMOESI && !c.Profile && c.Banks == 0 &&
		c.CheckpointEvery == 0 && c.SampleInterval == 0
}

// monotoneClock reports whether every access moves a core's clock by a
// finite, non-negative amount (retire and stall).
func (c Config) monotoneClock() bool {
	finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
	return finite(c.BaseCPI) && finite(c.MLP) && finite(c.StoreStallFrac) &&
		c.BaseCPI > 0 && c.MLP > 0 && c.StoreStallFrac >= 0
}

// Recording is one core's recorded private-level history. It is
// read-only once recorded, so concurrent replays may share it.
type Recording struct {
	key CoreKey
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

// recorder is the controller of a recording walk. It logs the core's
// LLC operations and answers every fetch as a loop-candidate hit, so an
// L2 line's loop bit stays set exactly as long as some policy's fill
// could have set it.
type recorder struct {
	r      *Recording
	filled fillTable
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Fetch(_ *core.Ctx, block uint64) core.FetchResult {
	if r.r.fetches == ^uint32(0) {
		panic("sim: recording holds more fetches than a stream can index")
	}
	r.filled.put(block, r.r.fetches)
	r.r.fetches++
	r.r.ops = append(r.r.ops, block)
	return core.FetchResult{Hit: true, Loop: true}
}

func (r *recorder) EvictL2(_ *core.Ctx, v cache.Line) {
	op := v.Tag | opEvict
	if v.Dirty {
		op |= opDirty
	}
	f, fetched := r.filled.take(v.Tag)
	if v.Loop {
		if !fetched {
			panic("sim: an L2 victim's loop bit has no fetch behind it")
		}
		op |= opLoop
		r.r.loopSrc = append(r.r.loopSrc, f)
	}
	r.r.ops = append(r.r.ops, op)
}

// fillTable maps each block the core's L2 holds since a fetch to the
// index of that fetch. A set loop bit can only come from the fill that
// followed that fetch: the block stays in the L2 from the fill to its
// eviction, so it is not fetched again in between. The table keeps one
// row per L2 set with a slot per way, plus one for a fetched block whose
// fill has not yet evicted its victim, so it needs no map.
type fillTable struct {
	slots   int
	setMask uint64
	block   []uint64 // block+1 per slot, 0 when free
	fetch   []uint32
}

func newFillTable(l2Sets, l2Ways int) fillTable {
	n := l2Sets * (l2Ways + 1)
	return fillTable{slots: l2Ways + 1, setMask: uint64(l2Sets - 1),
		block: make([]uint64, n), fetch: make([]uint32, n)}
}

// put records that fetch f fetched block.
func (t *fillTable) put(block uint64, f uint32) {
	base := int(block&t.setMask) * t.slots
	for i, b := range t.block[base : base+t.slots] {
		if b == 0 {
			t.block[base+i], t.fetch[base+i] = block+1, f
			return
		}
	}
	panic("sim: more fetched blocks in an L2 set than it has ways")
}

// take removes block and returns the fetch that fetched it, if one did.
func (t *fillTable) take(block uint64) (uint32, bool) {
	base := int(block&t.setMask) * t.slots
	for i, b := range t.block[base : base+t.slots] {
		if b == block+1 {
			t.block[base+i] = 0
			return t.fetch[base+i], true
		}
	}
	return 0, false
}

// RecordCore walks the private levels of the core key names, on cfg,
// and returns the recording. cfg must have key's private geometry; its
// LLC is not built.
func RecordCore(cfg Config, key CoreKey) (*Recording, error) {
	b, err := workload.ByName(key.Bench)
	if err != nil {
		return nil, err
	}
	if key.Pos < 0 || key.Pos >= MaxCores {
		return nil, fmt.Errorf("sim: core position %d out of range 0..%d", key.Pos, MaxCores-1)
	}
	return record(cfg, key, coreSource(b, key.Pos, key.Accesses, key.Seed))
}

// record walks one core's private levels over src, which it consumes,
// and returns the recording under key.
func record(cfg Config, key CoreKey, src trace.Source) (*Recording, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.recordable() {
		return nil, errors.New("sim: the configuration's private levels depend on the controller; run it directly")
	}
	if key.Priv != cfg.PrivateKey() {
		return nil, fmt.Errorf("sim: recording for %+v made on %+v", key.Priv, cfg.PrivateKey())
	}
	r := &Recording{key: key, acc: make([]uint32, 0, key.Accesses), ops: make([]uint64, 0, key.Accesses)}
	met := &core.Metrics{}
	m := &machine{cfg: cfg, ctx: &core.Ctx{Met: met}}
	c := m.newCore(0, src)
	rec := &recorder{r: r, filled: newFillTable(c.l2.NumSets(), c.l2.Ways())}
	m.ctrl = rec
	for {
		acc, ok := c.next()
		if !ok {
			break
		}
		l1, l2, ops := met.L1Misses, met.L2Misses, len(r.ops)
		m.access(c, acc.Addr/uint64(cfg.BlockBytes), acc.Write)
		level := met.L1Misses - l1 + met.L2Misses - l2
		w := uint32(acc.Instrs) | uint32(level)<<accLevelShift | uint32(len(r.ops)-ops)<<accOpsShift
		if acc.Write {
			w |= accWrite
		}
		r.acc = append(r.acc, w)
	}
	return r, nil
}

// Replay runs ctrl over recordings of mix's cores, recs[i] for core i,
// each of which must have the key cfg.CoreKeys gives it. The result is
// identical to RunMix's.
func Replay(cfg Config, ctrl core.Controller, mix workload.Mix, accesses, seed uint64, recs []*Recording) (Result, error) {
	if !Replayable(cfg, ctrl) {
		return Result{}, fmt.Errorf("sim: a %s run cannot replay recorded private levels", ctrl.Name())
	}
	keys, err := cfg.CoreKeys(mix, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	if len(recs) != len(keys) {
		return Result{}, fmt.Errorf("sim: %d recordings for %d cores", len(recs), len(keys))
	}
	for i, r := range recs {
		if r.key != keys[i] {
			return Result{}, fmt.Errorf("sim: core %d needs the recording of %+v, got %+v", i, keys[i], r.key)
		}
	}
	return replay(cfg, ctrl, recs), nil
}

// replay runs ctrl over recs, one per core, on a machine without
// private levels.
func replay(cfg Config, ctrl core.Controller, recs []*Recording) Result {
	m := newReplayMachine(cfg, ctrl, recs)
	m.replayLoop()
	return m.result()
}

func newReplayMachine(cfg Config, ctrl core.Controller, recs []*Recording) *machine {
	m := newMachine(cfg, ctrl)
	for i, r := range recs {
		end := len(r.acc)
		if cfg.MaxAccessesPerCore > 0 && cfg.MaxAccessesPerCore < uint64(end) {
			end = int(cfg.MaxAccessesPerCore)
		}
		m.cores = append(m.cores, &coreState{id: i, met: m.ctx.Met, rp: &replayCursor{
			r: r, end: end, loop: make([]uint64, (uint64(r.fetches)+63)/64),
		}})
	}
	return m
}

// replayCursor is one core's position in its recording during a
// replay, plus the FetchResult.Loop of every fetch replayed so far.
type replayCursor struct {
	r                 *Recording
	acc, end, op, src int
	fetch             uint32
	loop              []uint64 // bit f: fetch f's FetchResult.Loop
}

// replayLoop issues the recorded accesses in the serial loop's order.
// Only an access that issues LLC operations touches shared state, so
// only those are ordered across cores: by the core's clock before the
// access, then by core index. The serial loop issues them in that order
// too, since it always advances the core with the lowest clock, taking
// the lowest index on a tie, and a core's clock never decreases
// (monotoneClock). Between two such accesses a core runs ahead through
// its private-only ones (runAhead), doing the same float operations on
// its clock in the same order as the serial loop.
func (m *machine) replayLoop() {
	// at[i] is core i's clock before its pending access as a bit
	// pattern, which orders non-negative floats as their values do, or
	// the largest word once the core is done.
	at := make([]uint64, len(m.cores))
	pending := func(c *coreState) uint64 {
		if c.done {
			return math.MaxUint64
		}
		return math.Float64bits(c.cycles)
	}
	for i, c := range m.cores {
		m.runAhead(c)
		at[i] = pending(c)
	}
	for {
		first, i := at[0], 0
		for j := 1; j < len(at); j++ {
			if at[j] < first {
				first, i = at[j], j
			}
		}
		if first == math.MaxUint64 {
			return
		}
		c := m.cores[i]
		m.replayStep(c)
		at[i] = pending(c)
	}
}

// replayStep issues core c's pending access, which issues LLC
// operations, and runs c ahead to its next such access.
func (m *machine) replayStep(c *coreState) {
	r := c.rp
	a := r.r.acc[r.acc]
	r.acc++
	m.replayAccess(c, a)
	m.runAhead(c)
}

// runAhead replays core c's accesses up to the next one that issues LLC
// operations, and marks c done at the end of its recording (or of its
// MaxAccessesPerCore bound).
func (m *machine) runAhead(c *coreState) {
	r := c.rp
	acc := r.r.acc[:r.end]
	for i := r.acc; i < len(acc); i++ {
		a := acc[i]
		if a>>accOpsShift != 0 {
			r.acc = i
			return
		}
		m.stall(c, m.replayPrivate(c, a), a&accWrite != 0)
	}
	r.acc = len(acc)
	c.done = true
}

// replayPrivate retires recorded access a of core c and counts what it
// did in the private levels. It returns the access's latency without
// the LLC's.
func (m *machine) replayPrivate(c *coreState, a uint32) uint64 {
	m.retire(c, uint16(a))
	met := c.met
	met.L1Accesses++
	if a>>accLevelShift&3 == 0 {
		return m.cfg.L1Cycles
	}
	met.L1Misses++
	met.L2Accesses++
	return m.cfg.L1Cycles + m.cfg.L2Cycles
}

// replayAccess retires recorded access a of core c, which issues LLC
// operations: it counts what the access did in the private levels,
// issues its LLC operations in recorded order and charges the stall the
// direct walk would charge.
func (m *machine) replayAccess(c *coreState, a uint32) {
	r, met := c.rp, c.met
	lat := m.replayPrivate(c, a)
	// An access served by the LLC issues its demand fetch first; any
	// later fetch is a prefetch.
	demand := a>>accLevelShift&3 > 1
	if demand {
		met.L2Misses++
	}
	for n := a >> accOpsShift; n > 0; n-- {
		op := r.r.ops[r.op]
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
			f := r.r.loopSrc[r.src]
			r.src++
			v.Loop = r.loop[f>>6]&(1<<(f&63)) != 0
		}
		countL2Victim(met, v.Dirty)
		m.ctrl.EvictL2(m.ctx, v)
	}
	m.stall(c, lat, a&accWrite != 0)
}
