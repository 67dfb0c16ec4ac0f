package core

import (
	"strings"
	"testing"
)

// The registered set the rest of the tree depends on, in rank order.
var wantPolicyOrder = []string{
	"non-inclusive", "exclusive", "inclusive",
	"FLEXclusion", "Dswitch",
	"LAP-LRU", "LAP-Loop", "LAP", "Lhybrid",
	"reuse-detector", "rd-copyback",
}

func TestPolicyNamesRankOrder(t *testing.T) {
	got := PolicyNames()
	if len(got) != len(wantPolicyOrder) {
		t.Fatalf("registered policies: got %v, want %v", got, wantPolicyOrder)
	}
	for i, name := range wantPolicyOrder {
		if got[i] != name {
			t.Fatalf("policy %d: got %q, want %q (full: %v)", i, got[i], name, got)
		}
	}
}

func TestRegisterPolicyPanics(t *testing.T) {
	mustPanic := func(name string, info PolicyInfo) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: RegisterPolicy did not panic", name)
			}
		}()
		RegisterPolicy(info)
	}
	factory := func(PolicyParams) Controller { return NewNonInclusive() }
	mustPanic("empty name", PolicyInfo{Rank: 1000, New: factory})
	mustPanic("nil factory", PolicyInfo{Name: "broken", Rank: 1000})
	mustPanic("dwb suffix", PolicyInfo{Name: "fancy+DWB", Rank: 1000, New: factory})
	mustPanic("duplicate name", PolicyInfo{Name: "LAP", Rank: 1000, New: factory})
	mustPanic("duplicate name case-folded", PolicyInfo{Name: "lap", Rank: 1000, New: factory})
	mustPanic("duplicate rank", PolicyInfo{Name: "fresh", Rank: 1, New: factory})
}

func TestLookupPolicyCaseInsensitive(t *testing.T) {
	for _, alias := range []string{"LAP", "lap", "Lap", " LAP "} {
		info, ok := LookupPolicy(alias)
		if !ok || info.Name != "LAP" {
			t.Fatalf("LookupPolicy(%q): got (%q, %v), want (LAP, true)", alias, info.Name, ok)
		}
	}
	if _, ok := LookupPolicy("bogus"); ok {
		t.Fatal("LookupPolicy accepted an unknown name")
	}
}

func TestLookupPolicyDWBWrapper(t *testing.T) {
	base, _ := LookupPolicy("exclusive")
	info, ok := LookupPolicy("exclusive+dwb")
	if !ok {
		t.Fatal("wrapped lookup failed")
	}
	if info.Name != "exclusive+DWB" {
		t.Fatalf("wrapped canonical name: %q", info.Name)
	}
	if info.NeedsHybridLLC != base.NeedsHybridLLC ||
		info.SampledEligible != base.SampledEligible {
		t.Fatalf("wrapped flags differ from base: %+v vs %+v", info, base)
	}
	ctrl := info.New(PolicyParams{})
	if _, isDWB := ctrl.(*DeadWriteBypass); !isDWB {
		t.Fatalf("wrapped factory built %T", ctrl)
	}
	if ctrl.Name() != "exclusive+DWB" {
		t.Fatalf("wrapped controller name %q", ctrl.Name())
	}
	if _, ok := LookupPolicy("bogus+DWB"); ok {
		t.Fatal("wrapper over an unknown base accepted")
	}
}

// TestPolicyFactoryRoundTrip builds every registered policy (and its
// +DWB wrap) and checks the controller reports the canonical name —
// result labels across the tree depend on this equality.
func TestPolicyFactoryRoundTrip(t *testing.T) {
	for _, info := range Policies() {
		for _, name := range []string{info.Name, info.Name + "+DWB"} {
			ctrl, err := NewPolicy(name, PolicyParams{DuelPeriod: 123456})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ctrl.Name() != name {
				t.Errorf("%s: controller reports %q", name, ctrl.Name())
			}
			if d, ok := ctrl.(dueler); ok {
				if duel := d.Duel(); duel != nil && duel.PeriodCycles != 123456 {
					t.Errorf("%s: duel period %d not applied", name, duel.PeriodCycles)
				}
			}
		}
	}
}

func TestPolicyCapabilityFlags(t *testing.T) {
	wantFlags := map[string]struct{ hybrid, sampled bool }{
		"non-inclusive":  {false, true},
		"exclusive":      {false, true},
		"inclusive":      {false, true},
		"FLEXclusion":    {false, true},
		"Dswitch":        {false, true},
		"LAP-LRU":        {false, true},
		"LAP-Loop":       {false, true},
		"LAP":            {false, true},
		"Lhybrid":        {true, true},
		"reuse-detector": {false, false},
		"rd-copyback":    {false, false},
	}
	for name, want := range wantFlags {
		info, ok := LookupPolicy(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if info.NeedsHybridLLC != want.hybrid || info.SampledEligible != want.sampled {
			t.Errorf("%s flags: hybrid=%v sampled=%v, want %+v",
				name, info.NeedsHybridLLC, info.SampledEligible, want)
		}
	}
}

func TestNewPolicyUnknownListsValidNames(t *testing.T) {
	_, err := NewPolicy("bogus", PolicyParams{})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range wantPolicyOrder {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q lacks valid name %q", err, name)
		}
	}
}
