package main

import (
	"io"
	"testing"

	lap "repro"
)

// testShrink divides every simulation length, so a traced pass of each
// workload takes seconds instead of minutes.
const testShrink = 20

// TestWorkloads runs a short untraced and traced pass of every workload
// and checks that each reports every metric it must, with its unit, and
// that no operation failed.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(io.Discard, w, 7, 0.4, testShrink, false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndNames, endToEndUnit)

			res, err = run(io.Discard, w, 7, 0.4, testShrink, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayerNames, layerUnit)
			if len(res.Metrics) != len(perLayerNames) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayerNames))
			}
		})
	}
}

func checkResult(t *testing.T, res result, names []string, unit func(string) string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			t.Errorf("metric %s missing", n)
			continue
		}
		if m.Unit != unit(n) || m.Unit == "" {
			t.Errorf("metric %s has unit %q, want %q", n, m.Unit, unit(n))
		}
	}
}

// TestWrappersTransparent checks that the forwarding source and
// controller wrappers leave every simulated statistic unchanged, for a
// multi-programmed mix and a coherent threaded run, under LAP and
// non-inclusive.
func TestWrappersTransparent(t *testing.T) {
	p := newPass(3, 1, testShrink, true)
	cfg, inputs, err := pairInputs(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []lap.Policy{lap.PolicyLAP, lap.PolicyNonInclusive} {
		for _, in := range inputs {
			in.policy = pol
			ls, err := in.runWrapped(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := in.runPublic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkTransparent(in.name+"/"+string(pol), ls.res, plain); err != nil {
				t.Error(err)
			}
			if ls.accesses != in.accesses*uint64(cfg.Cores) || ls.ctrl.fetches == 0 || len(ls.blocks) == 0 {
				t.Errorf("%s/%s: wrappers saw %d accesses, %d fetches, %d recorded blocks",
					in.name, pol, ls.accesses, ls.ctrl.fetches, len(ls.blocks))
			}
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 0.5}, {20, 0.5}, {50, 0.8}, {100, 0.9}, {5000, 0.9}} {
		if got := tailQuantile(c.n, 0.9); got != c.want {
			t.Errorf("tailQuantile(%d, 0.9) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

// TestFig14Iterations pins the fig14-quick iteration count: it follows
// the pass duration only, so a slow host cannot reduce the sample count.
func TestFig14Iterations(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{0.4, 1}, {14, 1}, {25, 2}, {35, 3}, {50, 4}} {
		if got := fig14Iterations(c.seconds); got != c.want {
			t.Errorf("fig14Iterations(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// TestServeRounds pins the serve-mixed round count, which follows the
// pass duration only.
func TestServeRounds(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{0.4, 1}, {10, 1}, {25, 3}, {50, 5}} {
		if got := serveRounds(c.seconds); got != c.want {
			t.Errorf("serveRounds(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
}
