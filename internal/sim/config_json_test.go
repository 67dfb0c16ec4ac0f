package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/energy"
)

// TestConfigJSONRoundTrip pins the property lapserved relies on: a
// sim.Config survives encode→decode exactly. Every knob is set to a
// non-zero, non-default value so a field that stops marshalling (an
// unexported rename, a json:"-" tag) breaks this test rather than
// silently splitting server cache keys or dropping request overrides.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig().WithHybridL3()
	cfg.Cores = 2
	cfg.L3Replacement = cache.ReplRRIP
	cfg.L3Tech = energy.STTRAM().WithWriteReadRatio(4)
	cfg.PrefetchDegree = 2
	cfg.UseDRAM = true
	cfg.Coherent = true
	cfg.Profile = true
	cfg.MaxAccessesPerCore = 123
	cfg.WarmupAccessesPerCore = 45

	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("config did not round-trip:\n in: %+v\nout: %+v", cfg, back)
	}
	// Round-tripped configs must also compare equal as memo-key material.
	if cfg != back {
		t.Fatal("round-tripped config is not ==-equal to the original")
	}
}

// TestConfigFieldsAllExported rejects unexported fields, which
// encoding/json would silently drop — a decoded config would then
// diverge from the encoded one without any error.
func TestConfigFieldsAllExported(t *testing.T) {
	tp := reflect.TypeOf(Config{})
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if !f.IsExported() {
			t.Errorf("Config.%s is unexported: it will not survive JSON", f.Name)
		}
		if tag := f.Tag.Get("json"); tag == "-" {
			t.Errorf("Config.%s is json:\"-\": it will not survive JSON", f.Name)
		}
	}
}
