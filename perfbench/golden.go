package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// golden.json pins, at goldenSeed, the digest of every simulated output
// the workloads check: each run's Result, both Fig. 14 tables and the
// warm /v1/run bodies.
//
//go:embed golden.json
var goldenJSON []byte

var goldens = func() map[string]string {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return g
}()

// digest is a short SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// resultDigest digests a simulation result's JSON encoding, which holds
// every simulated statistic.
func resultDigest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digest(b)
}

// checkOutput compares an output's digest with the first digest the pass
// saw under the same key (outputs are deterministic for a seed) and, at
// the golden seed, with the committed golden.
func (p *pass) checkOutput(key, d string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstDigest == nil {
		p.firstDigest = map[string]string{}
	}
	first, seen := p.firstDigest[key]
	if !seen {
		p.firstDigest[key] = d
		p.details = append(p.details, fmt.Sprintf("digest %-24s %s", key, d))
		first = d
	}
	if d != first {
		return fmt.Errorf("%s: digest %s differs from the first run's %s", key, d, first)
	}
	if p.seed == goldenSeed {
		want, ok := goldens[key]
		if !ok {
			return fmt.Errorf("%s: no golden digest committed for seed %d", key, goldenSeed)
		}
		if d != want {
			return fmt.Errorf("%s: digest %s, golden %s", key, d, want)
		}
	}
	return nil
}
