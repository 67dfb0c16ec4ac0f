package sample

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestProfilePersistRoundTrip is the satellite guarantee: a profile
// decoded from its serialized form (with positionally rebuilt source
// checkpoints) replays every policy to results deeply equal to the
// original profile's — so a persisted profile can stand in for the
// functional pass it skipped.
func TestProfilePersistRoundTrip(t *testing.T) {
	checkPersistRoundTrip(t, 21000) // deliberately not an interval multiple
}

// TestProfilePersistRoundTripExactMultiple covers a trace whose length
// is a multiple of the interval: the profile must not keep a snapshot
// at the position just past its last interval, which no replay can use
// and which DecodeProfile rejects.
func TestProfilePersistRoundTripExactMultiple(t *testing.T) {
	checkPersistRoundTrip(t, 16000)
}

func checkPersistRoundTrip(t *testing.T, total uint64) {
	t.Helper()
	cfg := testCfg()
	cfg.SampleInterval = 2000
	cfg.SampleClusters = 4
	cfg.SampleWarmup = 1

	orig, err := BuildProfile(cfg, testSources(2, total), cfg.SampleInterval)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range orig.states {
		if pos >= len(orig.Intervals) {
			t.Fatalf("snapshot at %d, past the last of %d intervals", pos, len(orig.Intervals))
		}
	}
	payload := orig.Encode()
	restored, err := DecodeProfile(payload, testSources(2, total))
	if err != nil {
		t.Fatal(err)
	}
	if restored.PerCore != orig.PerCore || restored.Cores != orig.Cores ||
		!reflect.DeepEqual(restored.Intervals, orig.Intervals) {
		t.Fatal("restored profile metadata diverged")
	}
	if restored.snapStride != orig.snapStride || len(restored.states) != len(orig.states) {
		t.Fatalf("restored snapshots diverged: stride %d/%d, count %d/%d",
			restored.snapStride, orig.snapStride, len(restored.states), len(orig.states))
	}

	for name, mk := range map[string]func() core.Controller{
		"LAP":  func() core.Controller { return core.NewLAP() },
		"excl": func() core.Controller { return core.NewExclusive() },
	} {
		want, err := Run(cfg, mk(), orig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg, mk(), restored)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: replay from restored profile diverged:\nwant %+v\ngot  %+v", name, want.Sim, got.Sim)
		}
	}
}

// TestProfileDecodeRejectsBadPayloads pins the degrade-to-rebuild path:
// shape and framing problems error, they never produce a usable-looking
// profile.
func TestProfileDecodeRejectsBadPayloads(t *testing.T) {
	cfg := testCfg()
	orig, err := BuildProfile(cfg, testSources(2, 21000), 2000)
	if err != nil {
		t.Fatal(err)
	}
	payload := orig.Encode()

	if _, err := DecodeProfile(payload, testSources(1, 21000)); err == nil {
		t.Fatal("decoding a 2-core profile with 1 source did not error")
	}
	if _, err := DecodeProfile(payload[:len(payload)-3], testSources(2, 21000)); err == nil {
		t.Fatal("truncated payload did not error")
	}
	if _, err := DecodeProfile(append(payload[:len(payload):len(payload)], 0), testSources(2, 21000)); err == nil {
		t.Fatal("trailing bytes did not error")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 99 // payload version
	if _, err := DecodeProfile(bad, testSources(2, 21000)); err == nil {
		t.Fatal("future payload version did not error")
	}
	if _, err := DecodeProfile(nil, testSources(2, 21000)); err == nil {
		t.Fatal("empty payload did not error")
	}
}
