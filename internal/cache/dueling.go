package cache

// Set-dueling infrastructure (Qureshi et al. [35], as used by the paper in
// Section III-B). A small fraction of sets are dedicated leaders for each
// of two competing policies; follower sets adopt whichever leader group
// accumulated the lower cost over the current observation window. The
// paper dedicates 1/64 of sets to each leader group and compares miss
// counts every 10M cycles.

// Role classifies a set within a duel.
type Role int

// Duel roles. LeaderA sets always run policy A, LeaderB sets policy B, and
// Follower sets run the current winner.
const (
	LeaderA Role = iota
	LeaderB
	Follower
)

// leaderStride is the leader-set spacing: set s is a LeaderA when
// s%leaderStride == 0 and a LeaderB when s%leaderStride == 1, the
// paper's 1/64 dedication. A power of two, so RoleOf masks.
const leaderStride = 64

// Duel arbitrates between two policies via set-dueling.
type Duel struct {
	// PeriodCycles is the observation-window length (10M in the paper).
	PeriodCycles uint64

	costA, costB float64
	nextFlip     uint64
	winner       Role // LeaderA or LeaderB
}

// NewDuel returns a duel with the paper's parameters: 1/64 leader sets per
// policy and a 10M-cycle window, with policy A winning initially.
func NewDuel() *Duel {
	return &Duel{PeriodCycles: 10_000_000, winner: LeaderA}
}

// RoleOf classifies a set index.
func (d *Duel) RoleOf(set int) Role {
	switch set & (leaderStride - 1) {
	case 0:
		return LeaderA
	case 1:
		return LeaderB
	default:
		return Follower
	}
}

// PolicyOf returns the policy (LeaderA or LeaderB) that the given set
// should run right now.
func (d *Duel) PolicyOf(set int) Role {
	r := d.RoleOf(set)
	if r == Follower {
		return d.winner
	}
	return r
}

// AddCost charges cost against the given leader group. Calls for Follower
// roles are ignored, which lets callers charge unconditionally.
func (d *Duel) AddCost(r Role, cost float64) {
	switch r {
	case LeaderA:
		d.costA += cost
	case LeaderB:
		d.costB += cost
	}
}

// Observe advances the duel to the given cycle, re-electing the winner and
// clearing the window counters whenever a window boundary passes.
func (d *Duel) Observe(cycle uint64) {
	if d.nextFlip == 0 {
		d.nextFlip = d.PeriodCycles
	}
	if cycle < d.nextFlip {
		return
	}
	if d.costA <= d.costB {
		d.winner = LeaderA
	} else {
		d.winner = LeaderB
	}
	d.costA, d.costB = 0, 0
	for d.nextFlip <= cycle {
		d.nextFlip += d.PeriodCycles
	}
}

// Winner returns the currently winning policy.
func (d *Duel) Winner() Role { return d.winner }

// SetWinner forces the current winner (LeaderA or LeaderB). It exists for
// tests and for externally driven mode control; normal operation elects
// winners via Observe.
func (d *Duel) SetWinner(r Role) {
	if r == LeaderA || r == LeaderB {
		d.winner = r
	}
}
