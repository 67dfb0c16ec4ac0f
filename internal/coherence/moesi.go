package coherence

import "fmt"

// Full MOESI protocol engine. The Bus in this package is a lightweight
// traffic approximation; Directory is the complete reference protocol
// (the paper's gem5 baseline runs MOESI snooping), implemented as a
// directory over per-block sharer state. Callers drive it with Read,
// Write and Evict and receive the actions (data source, invalidations,
// writebacks) the protocol mandates. No simulation runs it: it is the
// reference that internal/sim's TestSnoopBusAgreesWithMOESIDirectory
// drives beside a coherent run, to check that every core holding a
// block is valid in the directory and that at most one holds it dirty.
// Property tests assert the MOESI invariants: a single writable owner,
// no stale readers alongside a modifier, and no dirty data lost on
// eviction.

// MOESIState is one cache's state for a block.
type MOESIState uint8

// The five MOESI states.
const (
	Invalid MOESIState = iota
	Shared
	Exclusive
	Owned
	Modified
)

// String names the state.
func (s MOESIState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("MOESIState(%d)", uint8(s))
	}
}

// writable reports whether a cache in this state may write locally.
func (s MOESIState) writable() bool { return s == Exclusive || s == Modified }

// dirty reports whether this state holds data newer than memory.
func (s MOESIState) dirty() bool { return s == Owned || s == Modified }

// DataSource says where a requester's data came from.
type DataSource uint8

// Data sources for a coherence fill.
const (
	FromMemory DataSource = iota
	FromCache             // supplied by an owner or sharer cache-to-cache
)

// Action summarises what the protocol did for one request.
type Action struct {
	// Source is where the data came from (reads and write-misses).
	Source DataSource
	// Invalidations is the number of peer copies invalidated.
	Invalidations int
	// Writeback reports that dirty data was written to memory (evictions
	// of M/O without other sharers able to take ownership).
	Writeback bool
}

// Directory tracks MOESI state per block across n caches.
type Directory struct {
	n      int
	blocks map[uint64][]MOESIState

	// Stats counts protocol activity.
	Stats DirectoryStats
}

// DirectoryStats counts protocol actions.
type DirectoryStats struct {
	Reads, Writes, Evicts     uint64
	CacheSupplies, MemFetches uint64
	Invalidations, Writebacks uint64
}

// NewDirectory returns a directory for n caches.
func NewDirectory(n int) *Directory {
	if n <= 0 {
		panic("coherence: directory needs at least one cache")
	}
	return &Directory{n: n, blocks: make(map[uint64][]MOESIState)}
}

// State returns cache c's state for a block.
func (d *Directory) State(c int, block uint64) MOESIState {
	st := d.blocks[block]
	if st == nil {
		return Invalid
	}
	return st[c]
}

func (d *Directory) entry(block uint64) []MOESIState {
	st := d.blocks[block]
	if st == nil {
		st = make([]MOESIState, d.n)
		d.blocks[block] = st
	}
	return st
}

// Read performs a load by cache c.
func (d *Directory) Read(c int, block uint64) Action {
	d.Stats.Reads++
	st := d.entry(block)
	if st[c] != Invalid {
		return Action{Source: FromCache} // local hit; no bus activity
	}
	var act Action
	// Find a supplier: an owner (M/O) preferentially, else any sharer.
	supplier := -1
	for i, s := range st {
		if i == c || s == Invalid {
			continue
		}
		if s.dirty() || supplier < 0 {
			supplier = i
		}
	}
	if supplier >= 0 {
		act.Source = FromCache
		d.Stats.CacheSupplies++
		// The supplier downgrades: M -> O (it keeps responsibility for
		// the dirty data), E -> S; O and S stay.
		switch st[supplier] {
		case Modified:
			st[supplier] = Owned
		case Exclusive:
			st[supplier] = Shared
		}
		st[c] = Shared
		return act
	}
	act.Source = FromMemory
	d.Stats.MemFetches++
	st[c] = Exclusive // sole copy
	return act
}

// Write performs a store by cache c, obtaining write permission.
func (d *Directory) Write(c int, block uint64) Action {
	d.Stats.Writes++
	st := d.entry(block)
	var act Action
	if !st[c].writable() {
		// Upgrade: invalidate every other copy. If we lacked data (I),
		// fetch it; a dirty peer supplies, else memory.
		if st[c] == Invalid {
			suppliedByCache := false
			for i, s := range st {
				if i != c && s != Invalid {
					suppliedByCache = true
					break
				}
			}
			if suppliedByCache {
				act.Source = FromCache
				d.Stats.CacheSupplies++
			} else {
				act.Source = FromMemory
				d.Stats.MemFetches++
			}
		} else {
			act.Source = FromCache // already had the data (S/O)
		}
		for i := range st {
			if i != c && st[i] != Invalid {
				st[i] = Invalid
				act.Invalidations++
				d.Stats.Invalidations++
			}
		}
	}
	st[c] = Modified
	return act
}

// Evict removes cache c's copy. Dirty data (M, or O with no remaining
// sharer to pass ownership to) is written back to memory.
func (d *Directory) Evict(c int, block uint64) Action {
	d.Stats.Evicts++
	st := d.blocks[block]
	if st == nil || st[c] == Invalid {
		return Action{}
	}
	var act Action
	if st[c].dirty() {
		// Try to hand ownership to a sharer (MOESI allows O migration);
		// otherwise write back.
		heir := -1
		for i, s := range st {
			if i != c && s == Shared {
				heir = i
				break
			}
		}
		if heir >= 0 {
			st[heir] = Owned
		} else {
			act.Writeback = true
			d.Stats.Writebacks++
		}
	}
	st[c] = Invalid
	// Last sharer standing upgrades S -> E is NOT automatic in MOESI;
	// leave states as they are.
	allInvalid := true
	for _, s := range st {
		if s != Invalid {
			allInvalid = false
			break
		}
	}
	if allInvalid {
		delete(d.blocks, block)
	}
	return act
}

// CheckInvariants verifies the MOESI safety properties for every tracked
// block, returning a description of the first violation or "" if clean.
func (d *Directory) CheckInvariants() string {
	for block, st := range d.blocks {
		var m, e, o, valid int
		for _, s := range st {
			switch s {
			case Modified:
				m++
			case Exclusive:
				e++
			case Owned:
				o++
			}
			if s != Invalid {
				valid++
			}
		}
		if m > 1 || e > 1 || o > 1 {
			return fmt.Sprintf("block %#x: duplicate owner states M=%d E=%d O=%d", block, m, e, o)
		}
		if (m == 1 || e == 1) && valid > 1 {
			return fmt.Sprintf("block %#x: M/E coexists with other copies (%d valid)", block, valid)
		}
		if m == 1 && o == 1 {
			return fmt.Sprintf("block %#x: M and O coexist", block)
		}
	}
	return ""
}

// Occupancy returns how many tracked (block, cache) pairs sit in each
// state — the coherence-mix statistic.
func (d *Directory) Occupancy() map[MOESIState]int {
	occ := map[MOESIState]int{}
	for _, st := range d.blocks {
		for _, s := range st {
			if s != Invalid {
				occ[s]++
			}
		}
	}
	return occ
}
