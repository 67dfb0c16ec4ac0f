package cache

import (
	"fmt"
	"testing"

	"repro/internal/checkpoint/wire"
)

// A naive reference cache: each set is a list of blocks, one per way,
// and recency is true LRU by timestamp. Every block carries the time of
// its last touch; the LRU way is the one with the oldest stamp. It keeps
// nothing packed and takes no shortcut, so FuzzCacheOps can hold the
// fast cache's recency order, victim choice and line state to it.

type modelBlock struct {
	valid, dirty, loop, shared bool
	block                      uint64
	rrpv                       uint8
	// stamp is the time of the way's last touch. Ways start at stamps
	// 0..ways-1, the identity order, and every touch takes the next
	// time, so stamps order all ways, valid or not, as recency does.
	stamp uint64
}

type modelCache struct {
	sets, ways   int
	rrip         bool
	blocks       [][]modelBlock // [set][way]
	now          uint64
	hits, misses uint64
}

func newModel(sets, ways int, r Replacement) *modelCache {
	m := &modelCache{sets: sets, ways: ways, rrip: r == ReplRRIP, now: uint64(ways)}
	for s := 0; s < sets; s++ {
		set := make([]modelBlock, ways)
		for w := range set {
			set[w].stamp = uint64(w)
		}
		m.blocks = append(m.blocks, set)
	}
	return m
}

func (m *modelCache) setOf(block uint64) int { return int(block % uint64(m.sets)) }

func (m *modelCache) probe(block uint64) int {
	for w, b := range m.blocks[m.setOf(block)] {
		if b.valid && b.block == block {
			return w
		}
	}
	return -1
}

func (m *modelCache) touch(set, way int) {
	b := &m.blocks[set][way]
	b.stamp = m.now
	m.now++
	if m.rrip {
		b.rrpv = 0
	}
}

func (m *modelCache) lookup(block uint64) int {
	w := m.probe(block)
	if w < 0 {
		m.misses++
		return -1
	}
	m.hits++
	m.touch(m.setOf(block), w)
	return w
}

func (m *modelCache) insert(set, way int, block uint64, dirty, loop bool) {
	b := &m.blocks[set][way]
	*b = modelBlock{valid: true, block: block, dirty: dirty, loop: loop, stamp: m.now}
	m.now++
	if m.rrip {
		b.rrpv = 2
	}
}

func (m *modelCache) evict(set, way int) (Line, bool) {
	b := &m.blocks[set][way]
	l := m.line(set, way)
	*b = modelBlock{stamp: b.stamp}
	return l, l.Valid
}

func (m *modelCache) line(set, way int) Line {
	b := m.blocks[set][way]
	if !b.valid {
		return Line{}
	}
	return Line{Tag: b.block, LineFlags: LineFlags{Valid: true, Dirty: b.dirty, Loop: b.loop, Shared: b.shared}}
}

// rank is the way's recency rank: how many ways of its set were touched
// less recently.
func (m *modelCache) rank(set, way int) int {
	n := 0
	for _, b := range m.blocks[set] {
		if b.stamp < m.blocks[set][way].stamp {
			n++
		}
	}
	return n
}

// lruWhere returns the least recently touched valid way in [lo, hi)
// satisfying keep, or -1.
func (m *modelCache) lruWhere(set, lo, hi int, keep func(modelBlock) bool) int {
	best := -1
	for w := lo; w < hi; w++ {
		b := m.blocks[set][w]
		if b.valid && keep(b) && (best < 0 || b.stamp < m.blocks[set][best].stamp) {
			best = w
		}
	}
	return best
}

func (m *modelCache) invalidIn(set, lo, hi int) int {
	for w := lo; w < hi; w++ {
		if !m.blocks[set][w].valid {
			return w
		}
	}
	return -1
}

func anyBlock(modelBlock) bool { return true }

// victim is the replacement victim in [lo, hi). Under LRU it is the
// lowest invalid way, else the least recently touched way (the least
// recently touched non-loop way first when loopAware). Under RRIP it is
// the first way in way order that is invalid or at the distant
// prediction (and, when loopAware, not a loop-block unless every way
// is), ageing the range until one is.
func (m *modelCache) victim(set, lo, hi int, loopAware bool) int {
	if !m.rrip {
		if w := m.invalidIn(set, lo, hi); w >= 0 {
			return w
		}
		if loopAware {
			if w := m.lruWhere(set, lo, hi, func(b modelBlock) bool { return !b.loop }); w >= 0 {
				return w
			}
		}
		return m.lruWhere(set, lo, hi, anyBlock)
	}
	for {
		allLoop, firstLoop := true, -1
		for w := lo; w < hi; w++ {
			b := m.blocks[set][w]
			distant := b.rrpv == 3
			if !b.valid || distant && (!loopAware || !b.loop) {
				return w
			}
			allLoop = allLoop && b.loop
			if distant && firstLoop < 0 {
				firstLoop = w
			}
		}
		if allLoop && firstLoop >= 0 {
			return firstLoop
		}
		// Every way is valid here.
		for w := lo; w < hi; w++ {
			if b := &m.blocks[set][w]; b.rrpv < 3 {
				b.rrpv++
			}
		}
	}
}

// mruWhere returns the most recently touched valid way in [lo, hi)
// satisfying keep, or -1.
func (m *modelCache) mruWhere(set, lo, hi int, keep func(modelBlock) bool) int {
	best := -1
	for w := lo; w < hi; w++ {
		b := m.blocks[set][w]
		if b.valid && keep(b) && (best < 0 || b.stamp > m.blocks[set][best].stamp) {
			best = w
		}
	}
	return best
}

// opReader hands out fuzz input bytes, zeros once they run out.
type opReader struct {
	data []byte
	off  int
}

func (r *opReader) next() byte {
	if r.off >= len(r.data) {
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

func (r *opReader) intn(n int) int { return int(r.next()) % n }

func (r *opReader) done() bool { return r.off >= len(r.data) }

// FuzzCacheOps drives a cache of random geometry (1-8 sets, 1-64 ways,
// LRU or RRIP, a hybrid SRAM region or none) through random operations
// and requires every answer, counter and line to equal the naive
// model's. Sets of up to 16 ways keep their recency order packed and
// wider ones one byte per way, so the geometry covers both.
func FuzzCacheOps(f *testing.F) {
	// Seeds: geometry bytes (sets, ways-1, replacement, SRAM ways), then
	// operations. Each seed repeats a mix of fills, hits and touches
	// long enough to reorder every rank of its sets.
	ops := func(n int, mix ...byte) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			for j, op := range mix {
				b = append(b, op, byte(i*7+j*13), byte(i*3+j))
			}
		}
		return b
	}
	for _, g := range [][4]byte{
		{0, 0, 0, 0},   // 1 set, direct-mapped
		{1, 3, 0, 0},   // 2 sets × 4 ways
		{3, 15, 0, 0},  // 8 sets × 16 ways, the widest packed set
		{2, 15, 1, 4},  // 4 × 16, RRIP, hybrid
		{1, 16, 0, 0},  // 2 × 17, the narrowest byte-order set
		{0, 23, 0, 8},  // 1 × 24, Fig. 21's LLC associativity, hybrid
		{2, 63, 1, 16}, // 4 × 64, RRIP, hybrid
		{0, 63, 0, 0},  // 1 × 64
	} {
		f.Add(append(g[:], ops(40, 3, 0, 2, 4, 0, 7, 5, 9, 6, 10, 11, 8, 1, 14)...))
		f.Add(append(g[:], append(ops(20, 3, 3, 0, 0, 2, 10), append([]byte{12, 0, 0}, ops(20, 4, 0, 10, 13, 6, 9)...)...)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		sets := 1 << r.intn(4)
		ways := 1 + r.intn(64)
		repl := Replacement(r.intn(2))
		sram := r.intn(ways + 1)
		cfg := Config{Name: "f", SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64, SRAMWays: sram, Replacement: repl}
		c := New(cfg)
		m := newModel(sets, ways, repl)
		// Blocks come from a universe of a few more per set than it has
		// ways, so lookups both hit and miss.
		universe := sets * (ways + 3)
		for step := 0; !r.done(); step++ {
			op := r.intn(15)
			block := uint64(r.intn(256) % universe)
			set, way := int(block)%sets, int(r.next())%ways
			lo := r.intn(ways)
			hi := lo + 1 + r.intn(ways-lo)
			where := fmt.Sprintf("step %d (op %d, block %d, set %d, way %d, range [%d,%d))", step, op, block, set, way, lo, hi)
			switch op {
			case 0:
				if got, want := c.Lookup(block), m.lookup(block); got != want {
					t.Fatalf("%s: Lookup = %d, model %d", where, got, want)
				}
			case 1:
				if got, want := c.Probe(block), m.probe(block); got != want {
					t.Fatalf("%s: Probe = %d, model %d", where, got, want)
				}
			case 2:
				c.Touch(set, way)
				m.touch(set, way)
			case 3, 4, 5, 6:
				// A fill at the victim way, as the controllers do it: the
				// block must be absent, the victim is evicted first.
				if c.Probe(block) >= 0 {
					continue
				}
				set = m.setOf(block)
				var got, want int
				switch op {
				case 3:
					got, want = c.Victim(set), m.victim(set, 0, ways, false)
				case 4:
					got, want = c.LoopVictim(set), m.victim(set, 0, ways, true)
				case 5:
					got, want = c.VictimInRange(set, lo, hi), m.victim(set, lo, hi, false)
				case 6:
					got, want = c.LoopVictimInRange(set, lo, hi), m.victim(set, lo, hi, true)
				}
				if got != want {
					t.Fatalf("%s: victim = %d, model %d", where, got, want)
				}
				c.Evict(set, got)
				m.evict(set, want)
				dirty, loop := r.next()&1 != 0, r.next()&1 != 0
				c.InsertAt(set, got, block, dirty, loop)
				m.insert(set, want, block, dirty, loop)
			case 7:
				gl, gok := c.Evict(set, way)
				ml, mok := m.evict(set, way)
				if gl != ml || gok != mok {
					t.Fatalf("%s: Evict = %+v %v, model %+v %v", where, gl, gok, ml, mok)
				}
			case 8:
				gl, gok := c.Invalidate(block)
				var ml Line
				mok := false
				if w := m.probe(block); w >= 0 {
					ml, mok = m.evict(m.setOf(block), w)
				}
				if gl != ml || gok != mok {
					t.Fatalf("%s: Invalidate = %+v %v, model %+v %v", where, gl, gok, ml, mok)
				}
			case 9:
				preds := []struct {
					fast  func(*Meta) bool
					model func(modelBlock) bool
				}{
					{func(l *Meta) bool { return l.Loop() }, func(b modelBlock) bool { return b.loop }},
					{func(l *Meta) bool { return l.Dirty() }, func(b modelBlock) bool { return b.dirty }},
					{func(*Meta) bool { return true }, anyBlock},
				}
				p := preds[r.intn(len(preds))]
				if got, want := c.MRUWhere(set, lo, hi, p.fast), m.mruWhere(set, lo, hi, p.model); got != want {
					t.Fatalf("%s: MRUWhere = %d, model %d", where, got, want)
				}
			case 10:
				for w := 0; w < ways; w++ {
					if !m.blocks[set][w].valid {
						continue
					}
					if got, want := c.Stamp(set, w), m.rank(set, w); got != uint64(want) {
						t.Fatalf("%s: Stamp(%d, %d) = %d, model rank %d", where, set, w, got, want)
					}
				}
			case 11:
				if b := &m.blocks[set][way]; b.valid {
					flag := r.intn(3)
					on := r.next()&1 != 0
					switch flag {
					case 0:
						c.Meta(set, way).SetDirty(on)
						b.dirty = on
					case 1:
						c.Meta(set, way).SetLoop(on)
						b.loop = on
					case 2:
						c.Meta(set, way).SetShared(on)
						b.shared = on
					}
				}
			case 12:
				restored := New(cfg)
				restored.Restore(c.Snapshot(nil))
				c = restored
			case 13:
				var e wire.Encoder
				c.EncodeSnapshot(&e)
				restored := New(cfg)
				if err := restored.RestoreSnapshot(wire.NewDecoder(e.Bytes())); err != nil {
					t.Fatalf("%s: restoring an encoded snapshot: %v", where, err)
				}
				c = restored
			case 14:
				c.Reset()
				m = newModel(sets, ways, repl)
			}
			compareModel(t, where, c, m)
		}
	})
}

// compareModel requires c's counters, lines and RRPVs to equal m's.
func compareModel(t *testing.T, where string, c *Cache, m *modelCache) {
	t.Helper()
	fills := 0
	for set := 0; set < m.sets; set++ {
		for w := 0; w < m.ways; w++ {
			if got, want := c.Line(set, w), m.line(set, w); got != want {
				t.Fatalf("%s: line (%d, %d) = %+v, model %+v", where, set, w, got, want)
			}
			if b := m.blocks[set][w]; b.valid {
				fills++
				if got := c.RRPV(set, w); got != b.rrpv {
					t.Fatalf("%s: RRPV (%d, %d) = %d, model %d", where, set, w, got, b.rrpv)
				}
			}
		}
	}
	if c.Hits != m.hits || c.Misses != m.misses || c.FillCount() != fills {
		t.Fatalf("%s: hits/misses/fills %d/%d/%d, model %d/%d/%d",
			where, c.Hits, c.Misses, c.FillCount(), m.hits, m.misses, fills)
	}
}
