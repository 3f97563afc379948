package debloat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/appcorpus"
	"repro/internal/appspec"
	"repro/internal/obs"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultDigest renders everything a Result decides: per-module removals
// and DD work, the oracle run count, the simulated debloating time, and
// every byte of the optimized image.
func resultDigest(res *Result) string {
	var b strings.Builder
	for _, m := range res.Modules {
		fmt.Fprintf(&b, "%s %s %d->%d %+v skip=%q removed=%s\n",
			m.Module, m.File, m.AttrsBefore, m.AttrsAfter, m.DD, m.Skipped,
			strings.Join(m.Removed, ","))
	}
	fmt.Fprintf(&b, "oracle_runs=%d debloat=%v\n", res.OracleRuns, res.DebloatTime)
	for _, path := range res.App.Image.List() {
		src, _ := res.App.Image.Read(path)
		fmt.Fprintf(&b, "%s %d\n%s\n", path, len(src), src)
	}
	return sha([]byte(b.String()))
}

// TestPipelineDigests pins the SHA-256 of every artifact of a traced
// pipeline run — Chrome trace, JSONL events, metrics snapshot, result —
// at one and four DD workers, and of a Rerun seeded with a prior result.
// The worker-count and engine tests compare runs of the same build with
// each other, so a change that moves every output alike passes them;
// these digests hold the DD loop, the pipeline and its tracing to the
// bytes they produced before the sequential and parallel loops, and Run
// and Rerun, were merged. The four-worker metrics digests were recorded
// once parallel DD stopped observing oracle durations in completion order
// (TestOracleMetricsIndependentOfAccountOrder); before that the snapshot
// varied from run to run.
func TestPipelineDigests(t *testing.T) {
	want := map[string]map[string]string{
		"markdown/w1": {
			"trace":   "317775dd834f678aa320a3d94edf5703f5f60c473d15e5d4a72a87c11ad41b69",
			"events":  "03c7d55dd07fe14fbf9f9df378d358f6201ba895fe76c853f3b4ade4398915b4",
			"metrics": "35659e0d3b366d861147e8210f2155f5ecbd113f4fea2c56d03a48412a96961f",
			"result":  "244c223c0780cb5556447d213ba5a557c0116683fafb061ffa5548d3d8e30a18",
		},
		"lightgbm/w1": {
			"trace":   "54f97c6964fca272fdeb98c23265f8549b8907d04d017fce96d2b9c0c18c897e",
			"events":  "c0aafdf7e4d42c0338416605e8cdfc5be8638055f889ca32be0caa7f98718f49",
			"metrics": "5c89c93da8d5e02bb28aff23aad8ebe68da59c26ac7ff4a60cbfb160bf24a98d",
			"result":  "9cc1137491ea3718afdfb37d435f1a44f8ddabf1c4f17be14eb28a0fc780e28e",
		},
		"markdown/w4": {
			"trace":   "b1a027bfb30083f42032d664fef6da8a6b122365dd9ac94544fb222a5c123562",
			"events":  "35eb0ba4d4b71127931da893146ef99d65522db16725d20ac7571c80b156d27b",
			"result":  "2dc6a2350c0bee3cc772085f23d5c6f45e8d00948b01d2798b42ab0086c5de49",
			"metrics": "4ba89341110d491ffa9c84c8144ec1ba31ce10a5fa2053b0ff461c80a85e124a",
		},
		"lightgbm/w4": {
			"trace":   "f3b5b85a5069570fc6b88809a5432b69df84a2f50897b587854f68350833aaf4",
			"events":  "adfbbd984e3904c77539a4a63056f75a08384741ab04e30af68036876a307704",
			"result":  "e496c31d106601e463d630ccc2561d000424fbe39455a5c185ac38f2ea0407c5",
			"metrics": "455e568a19559ab543a4174041b1832d9746aa8183bdbb185b256c0f3912d794",
		},
	}
	results := map[string]*Result{}
	for _, name := range []string{"markdown", "lightgbm"} {
		for _, workers := range []int{1, 4} {
			key := fmt.Sprintf("%s/w%d", name, workers)
			t.Run(key, func(t *testing.T) {
				tr := obs.New()
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.Tracer = tr
				res, err := Run(appcorpus.MustBuild(name), cfg)
				if err != nil {
					t.Fatal(err)
				}
				results[key] = res
				trace, err := tr.ChromeTrace()
				if err != nil {
					t.Fatal(err)
				}
				metrics, err := tr.Metrics().Snapshot().JSON()
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]string{
					"trace":   sha(trace),
					"events":  sha(tr.EventLogJSONL()),
					"metrics": sha(metrics),
					"result":  resultDigest(res),
				}
				for art, w := range want[key] {
					if got[art] != w {
						t.Errorf("%s digest = %s, want %s", art, got[art], w)
					}
				}
			})
		}
	}

	t.Run("lightgbm/rerun", func(t *testing.T) {
		prev := results["lightgbm/w1"]
		if prev == nil {
			t.Skip("lightgbm/w1 did not produce a result")
		}
		advanced := appspec.TestCase{Name: "advanced", Event: map[string]any{"mode": "advanced"}}
		res, err := Rerun(prev, []appspec.TestCase{advanced}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		const want = "fa20024d58a94fce44c0e2b088e498ebed064aafecbe223bcfadc92f6ad3c7be"
		if got := resultDigest(res); got != want {
			t.Errorf("result digest = %s, want %s", got, want)
		}
	})
}
