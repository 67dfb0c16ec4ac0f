package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
)

// The policy registry is the single source of truth for which inclusion
// policies exist and what each one can do. Every controller file
// registers itself in an init(), and every dispatch site in the tree —
// lap.Policies, config validation, cmd/lapsim -policy parsing, lapexp
// table generation, and the lapserved request validators — resolves
// names through LookupPolicy/NewPolicy instead of keeping its own list.
// Adding a policy is therefore one file: controller + RegisterPolicy,
// and it appears everywhere at once.

// PolicyParams carries the configuration-derived knobs a policy factory
// may need. The zero value is valid for every policy: dueling policies
// then keep the paper's 10M-cycle window and Dswitch falls back to a
// zero-cost miss model (callers that care derive real costs with
// sim.Config.PolicyParams).
type PolicyParams struct {
	// DuelPeriod rescales a dueling controller's observation window in
	// cycles; 0 keeps the constructor default.
	DuelPeriod uint64
	// MissNJ and WriteNJ parameterise Dswitch's energy duel: the cost of
	// one additional LLC miss and of one LLC write, in nanojoules.
	MissNJ  float64
	WriteNJ float64
}

// PolicyInfo describes one registered inclusion policy: its canonical
// name, a Table IV-style description, the capability flags the dispatch
// sites check, and the factory.
type PolicyInfo struct {
	// Name is the canonical (display) policy name, e.g. "non-inclusive"
	// or "LAP". Lookups are case-insensitive; results and tables always
	// carry this exact spelling.
	Name string
	// Description is the one-line Table IV description.
	Description string
	// NeedsHybridLLC marks policies that steer blocks between SRAM and
	// STT-RAM partitions and therefore require Config.L3SRAMWays > 0.
	NeedsHybridLLC bool
	// SampledEligible marks policies whose results stay trustworthy
	// under interval-sampled simulation. Predictor-table policies whose
	// state cannot be re-warmed across interval jumps set it false and
	// are refused (never silently wrong) in sampled mode.
	SampledEligible bool
	// Rank orders Policies()/PolicyNames() (paper Table IV order).
	Rank int
	// New builds a fresh controller; dueling state is per-run, so every
	// run needs its own instance. NewPolicy applies PolicyParams.
	New func(PolicyParams) Controller
}

// dwbSuffix is the wrapper suffix accepted on any registered name:
// "LAP+DWB" is LAP wrapped with the dead-write-bypass predictor.
const dwbSuffix = "+DWB"

var policyRegistry = map[string]PolicyInfo{}

// RegisterPolicy adds a policy to the registry; controller files call it
// from init(). It panics on an empty name, a name that parses as a
// "+DWB"-wrapped form, a duplicate name, or a duplicate rank — all
// programmer errors that must fail at process start, not at dispatch.
func RegisterPolicy(info PolicyInfo) {
	key := strings.ToLower(info.Name)
	switch {
	case key == "":
		panic("core: RegisterPolicy with an empty name")
	case strings.HasSuffix(key, strings.ToLower(dwbSuffix)):
		panic(fmt.Sprintf("core: policy name %q collides with the %s wrapper suffix", info.Name, dwbSuffix))
	case info.New == nil:
		panic(fmt.Sprintf("core: policy %q registered without a factory", info.Name))
	}
	if prev, dup := policyRegistry[key]; dup {
		panic(fmt.Sprintf("core: duplicate policy name %q (already registered as %q)", info.Name, prev.Name))
	}
	for _, other := range policyRegistry {
		if other.Rank == info.Rank {
			panic(fmt.Sprintf("core: policies %q and %q share rank %d", info.Name, other.Name, info.Rank))
		}
	}
	policyRegistry[key] = info
}

// LookupPolicy resolves a policy name case-insensitively, transparently
// handling the "+DWB" wrapper suffix: the returned info for "lap+dwb"
// has canonical name "LAP+DWB", inherits the base policy's capability
// flags, and its factory wraps the base controller with the dead-write
// predictor.
func LookupPolicy(name string) (PolicyInfo, bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	if base, wrapped := strings.CutSuffix(key, strings.ToLower(dwbSuffix)); wrapped {
		info, ok := policyRegistry[base]
		if !ok {
			return PolicyInfo{}, false
		}
		return wrapDWB(info), true
	}
	info, ok := policyRegistry[key]
	return info, ok
}

// wrapDWB derives the "+DWB" variant of a registered policy.
func wrapDWB(base PolicyInfo) PolicyInfo {
	info := base
	info.Name = base.Name + dwbSuffix
	info.Description = base.Description + ", with dead-write bypass prediction"
	info.New = func(p PolicyParams) Controller {
		return NewDeadWriteBypass(base.New(p))
	}
	return info
}

// Policies returns every registered policy in rank (Table IV) order.
func Policies() []PolicyInfo {
	out := make([]PolicyInfo, 0, len(policyRegistry))
	for _, info := range policyRegistry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// PolicyNames returns the canonical registered names in rank order.
func PolicyNames() []string {
	infos := Policies()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// dueler is implemented by controllers with set-dueling state.
type dueler interface{ Duel() *cache.Duel }

// NewPolicy resolves a name and builds a fresh controller, applying the
// params: a non-zero DuelPeriod rescales the controller's dueling window
// when it has one (a no-op for duel-less policies). Unknown names error
// with the valid-name list.
func NewPolicy(name string, params PolicyParams) (Controller, error) {
	info, ok := LookupPolicy(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (valid: %s; append %s for dead-write bypass)",
			name, strings.Join(PolicyNames(), ", "), dwbSuffix)
	}
	ctrl := info.New(params)
	if params.DuelPeriod > 0 {
		if d, isDueler := ctrl.(dueler); isDueler {
			if duel := d.Duel(); duel != nil {
				duel.PeriodCycles = params.DuelPeriod
			}
		}
	}
	return ctrl, nil
}
