package main

import (
	"fmt"

	lap "repro"
)

// The lapsim pair: one lap.Run of LAP on the Table III mix WH1 (about
// 0.6 of its accesses reach the inclusion controller, with an LLC hit
// ratio near 0.5, so both the hit and the fill paths run) and one
// lap.RunThreaded of LAP on PARSEC swaptions (about 0.1 reach the
// controller; the coherent shared address space exercises the snoop
// bus). The pair contrasts the LLC layers (core, cache) with the engine
// and the L1/L2 walk. It is not a timed workload: timed alone on one
// goroutine it was the benchmark's least steady figure (README.md, "The
// dropped exact-runs workload"). The traced fig14-quick pass splits it
// layer by layer.

// pairInputs resolves the two runs of the pair, each at the default
// length.
func pairInputs(p *pass) (lap.Config, []simInput, error) {
	cfg := lap.DefaultConfig()
	if err := lap.ValidateConfig(cfg); err != nil {
		return cfg, nil, err
	}
	pol, err := lap.ValidatePolicy(cfg, lap.PolicyLAP)
	if err != nil {
		return cfg, nil, err
	}
	wh1, err := tableIII("WH1")
	if err != nil {
		return cfg, nil, err
	}
	swaptions, err := lap.BenchmarkByName("swaptions")
	if err != nil {
		return cfg, nil, err
	}
	return cfg, []simInput{
		{name: "wh1", policy: pol, mix: wh1, accesses: p.length(defaultAccesses), seed: p.seed},
		{name: "swaptions", policy: pol, bench: swaptions, threaded: true, accesses: p.length(defaultAccesses), seed: p.seed},
	}, nil
}

// pairProbe splits each run of the pair across the workload, sim, core
// and cache layers, reported with a .wh1 or .swaptions suffix, and
// checks each run's Result against the golden.
func pairProbe(p *pass) error {
	cfg, inputs, err := pairInputs(p)
	if err != nil {
		return err
	}
	for _, in := range inputs {
		var tot layerTotals
		res, err := probeRun(cfg, in, &tot)
		if err == nil {
			err = p.checkOutput("runs/"+in.name, resultDigest(res))
		}
		p.op(err)
		tot.report(p, "."+in.name)
	}
	return nil
}

// tableIII returns the named Table III mix.
func tableIII(name string) (lap.Mix, error) {
	for _, m := range lap.TableIII() {
		if m.Name == name {
			return m, nil
		}
	}
	return lap.Mix{}, fmt.Errorf("mix %s is not in Table III", name)
}
