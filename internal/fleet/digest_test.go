package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs/query"
)

// pinnedDay is a 1000-function slice of the default 24-hour population on
// the test archetypes, replayed on two shards.
func pinnedDay() ([]Function, Config) {
	pc := DefaultPopConfig()
	pc.Functions = 1000
	return GeneratePopulation(pc, testArchetypes()), Config{
		Workers:        2,
		Period:         pc.Period,
		SLOs:           DefaultSLOs(),
		DashboardEvery: 4 * time.Hour,
		Seed:           pc.Seed,
		Pricing:        pc.Pricing,
	}
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func checkDigests(t *testing.T, got, want map[string]string) {
	t.Helper()
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest = %s, want %s", name, got[name], w)
		}
	}
}

// TestPinnedDigests pins the SHA-256 of every exported artifact of a
// labeled, rule-recording day and of a chaos day. The worker-count tests
// compare replays of the same build with each other, so a change that
// moves every output alike passes them; these digests were recorded
// before the single-writer telemetry handles replaced the locked
// per-invocation calls, and hold the hot path to byte-identical output.
func TestPinnedDigests(t *testing.T) {
	t.Run("labeled_rules", func(t *testing.T) {
		pop, cfg := pinnedDay()
		rules, err := query.ParseRules(`
			fleet:cost_usd:sum5m = sum(cost.usd[5m])
			fleet:req:rate5m = rate(req.total[5m])
		`)
		if err != nil {
			t.Fatal(err)
		}
		cfg.LabelSeries = true
		cfg.Rules = rules
		res, err := Replay(cfg, pop)
		if err != nil {
			t.Fatal(err)
		}
		e := res.QueryEngine()
		var ranges string
		for _, q := range []string{
			`cost.usd / req.total`,
			`sum(cost.usd{phase="init"}[24h]) / sum(cost.usd[24h])`,
			`rate(req.total{arm="debloated"}[6h])`,
			`fleet:cost_usd:sum5m`,
			`max(fleet:req:rate5m[24h])`,
		} {
			js, err := e.RangeJSON(q, 0, -1, 15*time.Minute)
			if err != nil {
				t.Fatalf("RangeJSON(%q): %v", q, err)
			}
			ranges += js + "\n"
		}
		checkDigests(t, map[string]string{
			"render":      sha(res.Render()),
			"openmetrics": sha(string(res.OpenMetrics())),
			"range":       sha(ranges),
		}, map[string]string{
			"render":      "8a26bfd41f593f180a3ae22e9f84b9ae1d7d0121976a554f0eeab1737a9166c9",
			"openmetrics": "f5a09e190e2c8ff5efd9287f27d036314fb0e0442c3386f6d933046a142e1338",
			"range":       "1dfddd4be506572a16d19d4be50e83c0f53234aa44e7b7b53a1f2f0d7988f78b",
		})
	})
	t.Run("chaos", func(t *testing.T) {
		pc := DefaultPopConfig()
		pc.Functions = 1000
		pc.ArmMix = []ArmShare{
			{Arm: chaos.ArmDebloated, Frac: 0.25},
			{Arm: chaos.ArmFallback, Frac: 0.25},
			{Arm: chaos.ArmBreaker, Frac: 0.25},
		}
		pop := GeneratePopulation(pc, testArchetypes())
		_, cfg := pinnedDay()
		cfg.SLOs = DefaultChaosSLOs()
		cfg.Chaos = &chaos.Config{Incidents: chaos.DefaultIncidentDay(), Mitigations: chaos.AllMitigations()}
		res, err := Replay(cfg, pop)
		if err != nil {
			t.Fatal(err)
		}
		checkDigests(t, map[string]string{
			"render":      sha(res.Render()),
			"scorecard":   sha(res.Scorecard()),
			"openmetrics": sha(string(res.OpenMetrics())),
		}, map[string]string{
			"render":      "dad40c77e0be37940ca4074fa8c6519b243caba94e304df12c131bece811fe81",
			"scorecard":   "c0a3414f8bb8e6985952d6e9beed5408fa5f727ecc0df7790b2808015e4fec3c",
			"openmetrics": "dd8fefd26aee8190880142b7a4c805465b54c27a7a5a2845d4eee53fc5cbacee",
		})
	})
}
