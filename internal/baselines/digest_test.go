package baselines

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/appcorpus"
)

// baselineDigest renders a baseline outcome: removed attributes per
// module (in module order), the safeguard figures, and every byte of the
// rewritten image.
func baselineDigest(res *Result) string {
	var b strings.Builder
	modules := make([]string, 0, len(res.RemovedPerModule))
	for m := range res.RemovedPerModule {
		modules = append(modules, m)
	}
	sort.Strings(modules)
	for _, m := range modules {
		fmt.Fprintf(&b, "%s: %s\n", m, strings.Join(res.RemovedPerModule[m], ","))
	}
	fmt.Fprintf(&b, "safeguard=%v/%v\n", res.SafeguardOverheadMS, res.SafeguardMemoryMB)
	for _, path := range res.App.Image.List() {
		src, _ := res.App.Image.Read(path)
		fmt.Fprintf(&b, "%s %d\n%s\n", path, len(src), src)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestBaselineDigests pins FaaSLight's and Vulture's output on two corpus
// apps. Both baselines share the debloater's statement model (which names
// a statement binds, which statements are candidates, where a module's
// source lives), so these digests also hold that model to its bytes.
func TestBaselineDigests(t *testing.T) {
	want := map[string]string{
		"markdown/faaslight": "4faf362829e9059d89416c9ee5ad18df96408788e35cb0530178f54eb6b97fd0",
		"markdown/vulture":   "347249d6810e03b0ffbc2b2fd33b01e2445570c088b66f18a68355551f3fc81d",
		"lightgbm/faaslight": "8b62fd8c8eabcc22df0a149ed32b03cc728a1e153fb4ac612b08054ae500d5d0",
		"lightgbm/vulture":   "2dba7bd2f0d0b9969a5ba413d394eecb76073d4a4d5cb01738e87f9c1b899ed6",
	}
	for _, name := range []string{"markdown", "lightgbm"} {
		fl, err := FaaSLight(appcorpus.MustBuild(name), 20)
		if err != nil {
			t.Fatal(err)
		}
		vu, err := Vulture(appcorpus.MustBuild(name))
		if err != nil {
			t.Fatal(err)
		}
		for key, res := range map[string]*Result{name + "/faaslight": fl, name + "/vulture": vu} {
			if got := baselineDigest(res); got != want[key] {
				t.Errorf("%s digest = %s, want %s", key, got, want[key])
			}
		}
	}
}
