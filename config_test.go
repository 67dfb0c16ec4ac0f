package lap

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.json")
	cfg := DefaultConfig().WithHybridL3()
	cfg.Cores = 8
	cfg.UseDRAM = true
	cfg.PrefetchDegree = 2
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores != 8 || got.L3SRAMWays != 4 || !got.UseDRAM || got.PrefetchDegree != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.L3Tech.WriteNJ != cfg.L3Tech.WriteNJ {
		t.Fatal("technology constants lost")
	}
}

func TestLoadConfigPartialUsesDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := writeFile(path, `{"Cores": 2}`); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 2 {
		t.Fatalf("override lost: %d", cfg.Cores)
	}
	if cfg.L3SizeBytes != DefaultConfig().L3SizeBytes || cfg.ClockHz != 3e9 {
		t.Fatal("defaults not applied to omitted fields")
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	invalid := filepath.Join(t.TempDir(), "invalid.json")
	if err := writeFile(invalid, `{"Cores": 0}`); err != nil {
		t.Fatal(err)
	}
	_, err := LoadConfig(invalid)
	if err == nil || !strings.Contains(err.Error(), "Cores") {
		t.Fatalf("invalid config error = %v", err)
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "Cores" {
		t.Fatalf("invalid config error is not a *FieldError naming Cores: %v", err)
	}
	// A key that names no Config field — a typo, or a setting the
	// simulator no longer has — fails the load as a *FieldError naming
	// the key.
	for _, tc := range []struct{ body, key string }{
		{`{"L3SizeByte": 4}`, "L3SizeByte"},
		{`{"Banks": 4}`, "Banks"},
		{`{"MSHREntries": 8}`, "MSHREntries"},
		{`{"TrackMOESI": true}`, "TrackMOESI"},
	} {
		unknown := filepath.Join(t.TempDir(), "unknown.json")
		if err := writeFile(unknown, tc.body); err != nil {
			t.Fatal(err)
		}
		_, err := LoadConfig(unknown)
		if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Fatalf("config with unknown key %s: error = %v", tc.key, err)
		}
		if !errors.As(err, &fe) || fe.Field != tc.key {
			t.Fatalf("config with unknown key %s: error is not a *FieldError naming it: %v", tc.key, err)
		}
	}
}

func TestValidateConfig(t *testing.T) {
	if err := ValidateConfig(DefaultConfig()); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"Cores", func(c *Config) { c.Cores = -1 }},
		{"BlockBytes", func(c *Config) { c.BlockBytes = 0 }},
		{"BlockBytes", func(c *Config) { c.BlockBytes = 32 }}, // below what a line's 58-bit block field addresses
		{"L1SizeBytes", func(c *Config) { c.L1Ways = 0 }},
		{"L2SizeBytes", func(c *Config) { c.L2SizeBytes = -4 }},
		{"L3SizeBytes", func(c *Config) { c.L3Ways = 0 }},
		{"L3SRAMWays", func(c *Config) { c.L3SRAMWays = 99 }},
		{"L3Banks", func(c *Config) { c.L3Banks = 3 }},
		{"ClockHz", func(c *Config) { c.ClockHz = 0 }},
		{"MLP", func(c *Config) { c.MLP = 0 }},
		{"PrefetchDegree", func(c *Config) { c.PrefetchDegree = -1 }},
		{"PrefetchDegree", func(c *Config) { c.PrefetchDegree = 17 }},
		{"L1Ways", func(c *Config) { c.L1Ways, c.L1SizeBytes = 128, 64<<10 }},
		{"L2Ways", func(c *Config) { c.L2Ways = 128 }},
		{"L3Ways", func(c *Config) { c.L3Ways = 128 }},
		{"L3SizeBytes", func(c *Config) { c.L3SizeBytes = 3 << 20 }}, // 3MB/16w -> non-pow2 sets
		// Machines too large to simulate: their caches alone would take
		// gigabytes.
		{"Cores", func(c *Config) { c.Cores = MaxCores + 1 }},
		{"L1SizeBytes", func(c *Config) { c.L1SizeBytes = 2 << 20 }},
		{"L2SizeBytes", func(c *Config) { c.L2SizeBytes = 8 << 20 }},
		{"L3SizeBytes", func(c *Config) { c.L3SizeBytes = 1 << 30 }},
		{"L3SizeBytes", func(c *Config) { c.L3SizeBytes = 64 << 30 }},
		{"L3Banks", func(c *Config) { c.L3Banks = 1 << 40 }},
		{"DRAM", func(c *Config) { c.UseDRAM, c.DRAM.Banks, c.DRAM.RowBytes, c.DRAM.BlockBytes = true, 1<<33, 8192, 64 }},
		{"DRAM", func(c *Config) { c.UseDRAM, c.DRAM.Banks, c.DRAM.RowBytes, c.DRAM.BlockBytes = true, 8, 32, 64 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := ValidateConfig(cfg)
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.field)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: error %v does not name the field", tc.field, err)
		}
	}
}

// TestValidateConfigLargestMachine: the size bounds are inclusive, and
// the largest machine they admit is valid.
func TestValidateConfigLargestMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = MaxCores
	cfg.L1SizeBytes = 1 << 20
	cfg.L2SizeBytes = 4 << 20
	cfg.L3SizeBytes = 512 << 20
	if err := ValidateConfig(cfg); err != nil {
		t.Fatalf("largest machine rejected: %v", err)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestParseConfig(t *testing.T) {
	// Empty input yields the validated defaults.
	cfg, err := ParseConfig(nil)
	if err != nil || cfg != DefaultConfig() {
		t.Fatalf("ParseConfig(nil) = %+v, %v", cfg, err)
	}
	// Partial overlays keep unmentioned defaults.
	cfg, err = ParseConfig([]byte(`{"Cores": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 2 || cfg.L3SizeBytes != DefaultConfig().L3SizeBytes {
		t.Fatalf("partial overlay: %+v", cfg)
	}
	// Invalid JSON and invalid machines both error.
	if _, err := ParseConfig([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := ParseConfig([]byte(`{"Cores": -1}`)); err == nil {
		t.Fatal("invalid machine accepted")
	}
	// Unknown keys and anything after the object are errors, not
	// silently dropped: a misspelled L3SizeBytes would otherwise run the
	// default LLC, and Banks, MSHREntries and TrackMOESI are retired
	// settings.
	for _, tc := range []struct{ in, want string }{
		{`{"L3SizeByte": 1048576}`, `unknown field "L3SizeByte"`},
		{`{"Banks": 4}`, `unknown field "Banks"`},
		{`{"Cores": 2} {"Cores": 4}`, "after the JSON object"},
		{`{"Cores": 2} garbage`, "after the JSON object"},
	} {
		if _, err := ParseConfig([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseConfig(%s) error = %v, want one containing %q", tc.in, err, tc.want)
		}
	}
	// An unknown key is a *FieldError naming the key as sent, at any
	// depth, so API layers can report it like a validation failure.
	for _, tc := range []struct{ in, field string }{
		{`{"Banks": 4}`, "Banks"},
		{`{"MSHREntries": 8}`, "MSHREntries"},
		{`{"TrackMOESI": true}`, "TrackMOESI"},
		{`{"Cores": 2, "L3SizeByte": 1048576}`, "L3SizeByte"},
		{`{"DRAM": {"Banks": 8, "Rows": 4}}`, "Rows"},
		{`{"with \"quote\"": 1}`, `with "quote"`},
	} {
		_, err := ParseConfig([]byte(tc.in))
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("ParseConfig(%s) error = %#v, want a *FieldError on %q", tc.in, err, tc.field)
		}
	}
	// Trailing whitespace is fine.
	if cfg, err := ParseConfig([]byte("{\"Cores\": 2}\n")); err != nil || cfg.Cores != 2 {
		t.Fatalf("trailing newline: %+v, %v", cfg, err)
	}
}
