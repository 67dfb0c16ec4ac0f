package lap

import "testing"

// FuzzConfigJSON decodes arbitrary machine configurations. Decoding and
// validation must never panic, and every configuration ParseConfig
// accepts must simulate a tiny mix, exact and, when it asks for
// sampling, sampled: Validate must reject what the simulator cannot
// run. Seeds live in testdata/fuzz/FuzzConfigJSON.
func FuzzConfigJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		mix := DuplicateMix("mcf", cfg.Cores)
		if _, err := Run(cfg, PolicyLAP, mix, 300, 1); err != nil {
			t.Fatalf("valid config %s: %v", data, err)
		}
		if cfg.SampleInterval == 0 {
			return
		}
		if _, err := RunSampled(cfg, PolicyLAP, mix, 300, 1); err != nil {
			t.Fatalf("valid sampled config %s: %v", data, err)
		}
	})
}
