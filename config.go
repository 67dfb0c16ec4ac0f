package lap

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Machine-configuration serialisation: Config is a plain value struct, so
// it round-trips through JSON. SaveConfig/LoadConfig let experiments be
// pinned to files and replayed (`lapsim -config machine.json`).

// SaveConfig writes cfg to path as indented JSON.
func SaveConfig(path string, cfg Config) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("lap: encoding config: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("lap: writing config: %w", err)
	}
	return nil
}

// LoadConfig reads a JSON machine configuration and validates it.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("lap: reading config: %w", err)
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		return Config{}, fmt.Errorf("lap: config %s: %w", path, err)
	}
	return cfg, nil
}

// ParseConfig decodes a (possibly partial) JSON machine configuration
// overlaid on DefaultConfig, and validates it. Empty input yields the
// defaults. The input must hold exactly one JSON object, and a key that
// names no Config field is a *FieldError whose Field is the key, so a
// misspelled or retired setting is never silently ignored. This is the
// byte-level core of LoadConfig, shared with the lapserved request
// decoder.
func ParseConfig(data []byte) (Config, error) {
	if len(data) == 0 {
		return parsedDefault()
	}
	// Start from the defaults so omitted fields stay sane.
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&cfg)
	if err == nil {
		if _, tokErr := dec.Token(); tokErr != io.EOF {
			err = errors.New("unexpected data after the JSON object")
		}
	}
	if key, ok := unknownKey(err); ok {
		return Config{}, &FieldError{Field: key, Reason: fmt.Sprintf("unknown field %q", key)}
	}
	if err != nil {
		return Config{}, fmt.Errorf("decoding config: %w", err)
	}
	return validated(cfg)
}

// parsedDefault is ParseConfig of empty input, validated once: lapserved
// parses an absent "config" on every request.
var parsedDefault = sync.OnceValues(func() (Config, error) { return validated(DefaultConfig()) })

func validated(cfg Config) (Config, error) {
	if err := ValidateConfig(cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// unknownKey returns the key named by the error a json.Decoder with
// DisallowUnknownFields reports for it, which has no type of its own.
func unknownKey(err error) (string, bool) {
	if err == nil {
		return "", false
	}
	rest, ok := strings.CutPrefix(err.Error(), "json: unknown field ")
	if !ok {
		return "", false
	}
	key, uerr := strconv.Unquote(rest)
	return key, uerr == nil
}

// ValidateConfig checks a configuration for the mistakes the simulator
// would otherwise panic on, and for machines too large to simulate
// (more than MaxCores cores, an L1 over 1 MiB, an L2 over 4 MiB or an
// LLC over 512 MiB). Failures are *FieldError values naming the
// offending Config field.
func ValidateConfig(cfg Config) error {
	return cfg.Validate()
}

// ValidatePolicy resolves a policy name against the policy registry
// under cfg, returning the canonical spelling ("lap+dwb" → "LAP+DWB").
// Unknown names and policies cfg cannot run — hybrid-only on a uniform
// LLC, sampled-ineligible when cfg.SampleInterval > 0 — are *FieldError
// values on "Policy" carrying the valid-name list, the same error every
// entry point (CLI, HTTP API, library) reports.
func ValidatePolicy(cfg Config, p Policy) (Policy, error) {
	canon, err := cfg.ValidatePolicy(string(p))
	if err != nil {
		return "", err
	}
	return Policy(canon), nil
}
